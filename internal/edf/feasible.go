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
	// UtilizationExceeds, when non-nil, supplies the exact answer to the
	// first constraint (U > 1) so Test can skip summing the rational
	// utilization of the whole set. Callers that maintain a per-link
	// utilization sum incrementally (the admission controller's hot path)
	// use this; the value must equal UtilizationExceedsOne(tasks) exactly —
	// rational arithmetic is exact, so an incrementally maintained sum
	// matches a fresh one bit for bit. Result.Utilization (the float
	// reporting value) is computed from the tasks either way.
	UtilizationExceeds *bool
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
func Test(tasks []Task, opts Options) Result {
	return TestScratch(tasks, opts, nil)
}

// TestScratch is Test with a caller-owned Scratch for allocation-free
// repeated testing (one Scratch per verification worker); nil behaves
// like Test. Results are identical either way.
func TestScratch(tasks []Task, opts Options, scratch *Scratch) Result {
	res := Result{Verdict: Feasible, MinSlack: math.MaxInt64}
	if !opts.SkipValidation {
		if err := ValidateTasks(tasks); err != nil {
			return Result{Verdict: InvalidTask, Err: err, MinSlack: math.MaxInt64}
		}
	}
	if len(tasks) == 0 {
		return res
	}
	// One pass feeds every step below: the reporting utilization (summed
	// in task order, bit-identical to UtilizationFloat), whether every
	// deadline covers its period, the saturating total capacity, and the
	// shortest period and deadline.
	cover := true
	var sumC int64
	minP, minD := int64(math.MaxInt64), int64(math.MaxInt64)
	for _, t := range tasks {
		res.Utilization += float64(t.C) / float64(t.P)
		cover = cover && t.D >= t.P
		sumC = addSat(sumC, t.C)
		minP, minD = min(minP, t.P), min(minD, t.D)
	}

	// First constraint (Eq. 18.2): utilization at most 100%.
	exceeds := false
	if opts.UtilizationExceeds != nil {
		exceeds = *opts.UtilizationExceeds
	} else {
		exceeds = UtilizationExceedsOne(tasks)
	}
	if exceeds {
		res.Verdict = InfeasibleUtilization
		return res
	}

	// Utilization-only exit: with every D >= P, h(t) <= U*t, so U <= 1 is
	// exact (the paper's Liu & Layland remark, widened from D == P).
	if cover {
		res.ShortCircuit = true
		return res
	}

	// Second constraint (Eq. 18.3-18.5): demand criterion over the first
	// synchronous busy period, evaluated only at absolute deadlines. With
	// sum C <= min P every ceil(sum C / P_i) is 1, so the iteration's first
	// iterate sum C is its fixed point (BusyPeriod would reject a sum that
	// reached math.MaxInt64).
	if sumC < math.MaxInt64 && sumC <= minP {
		res.BusyPeriod = sumC
		if sumC < minD {
			return res // no checkpoint m*P_i + D_i lies in [1, busy period]
		}
	} else {
		bp, ok := BusyPeriod(tasks)
		if !ok {
			return Result{Verdict: Inconclusive, Err: ErrBusyPeriodDiverged, Utilization: res.Utilization, MinSlack: math.MaxInt64}
		}
		res.BusyPeriod = bp
	}
	return walk(tasks, opts, scratch, res)
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
