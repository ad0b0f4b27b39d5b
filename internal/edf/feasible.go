package edf

import (
	"errors"
	"fmt"
	"math"
)

// Verdict classifies the outcome of a feasibility test.
type Verdict int

const (
	// Feasible: the task set is EDF-schedulable on one link direction.
	Feasible Verdict = iota
	// InfeasibleUtilization: first constraint violated (U > 1).
	InfeasibleUtilization
	// InfeasibleDemand: second constraint violated (h(t) > t for some t).
	InfeasibleDemand
	// InvalidTask: a task failed parameter validation.
	InvalidTask
	// Inconclusive: analysis exceeded configured limits; callers must treat
	// this as a rejection for admission-control purposes.
	Inconclusive
)

// String implements fmt.Stringer.
func (v Verdict) String() string {
	switch v {
	case Feasible:
		return "feasible"
	case InfeasibleUtilization:
		return "infeasible(utilization)"
	case InfeasibleDemand:
		return "infeasible(demand)"
	case InvalidTask:
		return "invalid-task"
	case Inconclusive:
		return "inconclusive"
	default:
		return fmt.Sprintf("verdict(%d)", int(v))
	}
}

// Result carries the verdict of a feasibility test plus diagnostics.
type Result struct {
	Verdict      Verdict
	Err          error   // non-nil for InvalidTask and Inconclusive
	Utilization  float64 // total utilization of the set (approximate, reporting only)
	BusyPeriod   int64   // synchronous busy period, 0 when not computed
	ViolationAt  int64   // first t with h(t) > t, when Verdict == InfeasibleDemand
	DemandAt     int64   // h(ViolationAt)
	MinSlack     int64   // min over evaluated checkpoints of t - h(t); math.MaxInt64 when none was evaluated
	Checked      int     // number of checkpoints evaluated
	ShortCircuit bool    // true when every task has D >= P, so U <= 1 alone proved feasibility (h(t) <= U*t)
}

// OK reports whether the task set was proven feasible.
func (r Result) OK() bool { return r.Verdict == Feasible }

// String implements fmt.Stringer.
func (r Result) String() string {
	switch r.Verdict {
	case InfeasibleDemand:
		return fmt.Sprintf("%v at t=%d (h=%d), U=%.4f", r.Verdict, r.ViolationAt, r.DemandAt, r.Utilization)
	case InfeasibleUtilization:
		return fmt.Sprintf("%v U=%.4f", r.Verdict, r.Utilization)
	default:
		return fmt.Sprintf("%v U=%.4f busy=%d checked=%d", r.Verdict, r.Utilization, r.BusyPeriod, r.Checked)
	}
}

// Options configures the feasibility test.
type Options struct {
	// MaxCheckpoints bounds the number of demand evaluations; 0 means
	// DefaultMaxCheckpoints. If the bound is hit the test returns
	// Inconclusive rather than an unsound "feasible".
	MaxCheckpoints int
	// SkipValidation omits per-task parameter validation (callers that have
	// already validated can save the pass).
	SkipValidation bool
}

// DefaultMaxCheckpoints is the default cap on demand evaluations per test.
// The Fig. 18.5 workload needs well under a thousand.
const DefaultMaxCheckpoints = 1 << 22

// ErrTooManyCheckpoints is wrapped in Result.Err when a test gives up.
var ErrTooManyCheckpoints = errors.New("edf: checkpoint limit exceeded")

// ErrBusyPeriodDiverged is wrapped in Result.Err when the busy-period
// iteration fails to converge (only possible for U > 1 inputs, which the
// utilization constraint catches first under exact arithmetic).
var ErrBusyPeriodDiverged = errors.New("edf: busy period iteration diverged")

// Test runs the two-step feasibility test of §18.3.2 on one link direction:
//
//  1. First constraint: U <= 1 (exact rational arithmetic).
//  2. Second constraint: h(t) <= t for every checkpoint t = m*P_i + D_i in
//     [1, busy period].
//
// When every task has D >= P the first constraint alone is necessary and
// sufficient and step 2 is skipped: then h(t) <= U*t <= t for every t
// (Baruah, Rosier & Howell 1990; Liu & Layland's D == P is the special
// case the paper cites). No busy period is computed and no checkpoint is
// walked, so such a set is never Inconclusive.
//
// When the total capacity fits in the shortest period, the busy period is
// that total in closed form (every job released at 0 is done by then, and
// none is released again before it ends); when it also ends before the
// shortest deadline, no checkpoint lies in it and the walk is skipped.
// The Result is the walk's, field for field.
//
// Everything before the walk is one rule: summarize the tasks (Summary),
// then decide from the summary (Summary.Decide). The admission kernel
// keeps a Summary live per link and asks the same rule without reading
// the tasks.
func Test(tasks []Task, opts Options) Result {
	return TestScratch(tasks, opts, nil)
}

// TestScratch is Test with a caller-owned Scratch for allocation-free
// repeated testing (the admission engine keeps one); nil behaves
// like Test. Results are identical either way.
func TestScratch(tasks []Task, opts Options, scratch *Scratch) Result {
	if !opts.SkipValidation {
		if err := ValidateTasks(tasks); err != nil {
			return Result{Verdict: InvalidTask, Err: err, MinSlack: math.MaxInt64}
		}
	}
	// One pass summarizes the tasks and sums the reporting utilization (in
	// task order, bit-identical to UtilizationFloat).
	var s Summary
	var u float64
	for _, t := range tasks {
		s.Add(t)
		u += float64(t.C) / float64(t.P)
	}
	s.Over = UtilizationExceedsOne(tasks)
	return s.finish(tasks, u, opts, scratch)
}

// walk evaluates the demand criterion at every checkpoint up to
// res.BusyPeriod, completing res, which holds the verdict so far.
func walk(tasks []Task, opts Options, scratch *Scratch, res Result) Result {
	bp := res.BusyPeriod
	maxChecks := opts.MaxCheckpoints
	if maxChecks <= 0 {
		maxChecks = DefaultMaxCheckpoints
	}
	exceeded := false
	// The sweep maintains h(t) incrementally across checkpoints (each
	// deadline instance contributes its C once), so the whole test is
	// O(m log n) instead of O(m*n) calls into Demand.
	demandCheckpoints(tasks, bp, scratch, func(t, h int64) bool {
		if res.Checked >= maxChecks {
			exceeded = true
			return false
		}
		res.Checked++
		if h > t {
			res.Verdict = InfeasibleDemand
			res.ViolationAt = t
			res.DemandAt = h
			return false
		}
		if slack := t - h; slack < res.MinSlack {
			res.MinSlack = slack
		}
		return true
	})
	if exceeded {
		return Result{
			Verdict:     Inconclusive,
			Err:         fmt.Errorf("%w (limit %d, busy period %d)", ErrTooManyCheckpoints, maxChecks, bp),
			Utilization: res.Utilization,
			BusyPeriod:  bp,
			MinSlack:    math.MaxInt64,
			Checked:     res.Checked,
		}
	}
	return res
}

// TestDefault runs Test with default options.
func TestDefault(tasks []Task) Result {
	return Test(tasks, Options{})
}

// FeasibleSet is a convenience wrapper returning only the boolean verdict.
func FeasibleSet(tasks []Task) bool {
	return TestDefault(tasks).OK()
}
