package edf

import (
	"math"
	"math/bits"
)

// Summary is what the feasibility test knows about a task set before any
// demand walk: the total capacity sum C, how many tasks have D < P, the
// shortest period and deadline, and the exact answer to U > 1. Those
// numbers alone settle the test in its three early exits — U > 1, every
// D >= P, and a closed-form busy period (sum C <= min P) that ends before
// the shortest deadline — so Decide answers without reading a task, and
// Test and TestScratch share the one rule.
//
// A Summary is built task by task and patched as the set changes (Add,
// Remove, Replace), which is how the admission kernel keeps one live per
// link. Patching keeps the task count, sum C and the D < P count exact,
// and it counts the tasks that hold the shortest period and the shortest
// deadline. A bound loosens only when the last of its holders leaves (a
// Replace folds the new task in before it retires the old one, so a task
// re-partitioned to the same minimum keeps the bound exact); it then
// stays where it was, a lower bound on the new minimum. Decide only ever
// proves feasibility by comparing sum C against the bounds from below, so
// a lower bound can make it give up but never makes it wrong. Loose
// reports when that may have happened, and Rescan restores the exact
// values.
//
// A task with D = 0 is a placeholder: a channel that holds no deadline
// partition yet. It counts toward sum C and the shortest period but not
// toward the deadline fields, so partitioning it later tightens the
// summary instead of loosening it. (Validation rejects D = 0, so a
// checked task set holds no placeholder.)
//
// The zero value summarizes the empty set.
type Summary struct {
	// Over is the exact answer to the first constraint, U > 1. The owner
	// keeps it: Add, Remove, Replace and Rescan leave it alone.
	Over bool

	n            int    // tasks, placeholders included
	short        int    // non-placeholder tasks with D < P
	sumHi, sumLo uint64 // sum C as an exact 128-bit integer
	minP, minD   int64  // lower bounds on the shortest period and (non-placeholder) deadline; MaxInt64: none
	atP, atD     int    // tasks with P == minP, and non-placeholder tasks with D == minD
}

// count adds (sign = 1) or takes away (sign = -1) a task's share of the
// exact fields.
func (s *Summary) count(t Task, sign int) {
	var carry uint64
	if sign > 0 {
		s.sumLo, carry = bits.Add64(s.sumLo, uint64(t.C), 0)
		s.sumHi += carry
	} else {
		s.sumLo, carry = bits.Sub64(s.sumLo, uint64(t.C), 0)
		s.sumHi -= carry
	}
	s.n += sign
	if t.D != 0 && t.D < t.P {
		s.short += sign
	}
}

// lower folds a task into the minimum bounds and their holder counts.
func (s *Summary) lower(t Task) {
	switch {
	case t.P < s.minP:
		s.minP, s.atP = t.P, 1
	case t.P == s.minP:
		s.atP++
	}
	switch {
	case t.D == 0:
	case t.D < s.minD:
		s.minD, s.atD = t.D, 1
	case t.D == s.minD:
		s.atD++
	}
}

// retire takes a task out of the holder counts. A bound whose last holder
// leaves stays put, below the new minimum.
func (s *Summary) retire(t Task) {
	if t.P == s.minP {
		s.atP--
	}
	if t.D != 0 && t.D == s.minD {
		s.atD--
	}
}

// Add folds one task into the summary.
func (s *Summary) Add(t Task) {
	if s.n == 0 {
		*s = Summary{Over: s.Over, minP: math.MaxInt64, minD: math.MaxInt64}
	}
	s.count(t, 1)
	s.lower(t)
}

// Remove takes a task that was added out of the summary.
func (s *Summary) Remove(t Task) {
	if s.n == 1 {
		*s = Summary{Over: s.Over}
		return
	}
	s.count(t, -1)
	s.retire(t)
}

// Replace swaps a task that was added for t.
func (s *Summary) Replace(old, t Task) {
	s.count(t, 1)
	s.lower(t)
	s.count(old, -1)
	s.retire(old)
}

// Rescan recomputes the summary from tasks, empty slots (see Empty)
// skipped, making every bound exact.
func (s *Summary) Rescan(tasks []Task) {
	*s = Summary{Over: s.Over}
	for _, t := range tasks {
		if !Empty(t) {
			s.Add(t)
		}
	}
}

// SumC returns the total capacity, saturated at math.MaxInt64 like
// TotalCapacity.
func (s *Summary) SumC() int64 {
	if s.sumHi != 0 || s.sumLo > math.MaxInt64 {
		return math.MaxInt64
	}
	return int64(s.sumLo)
}

// ShortDeadlines returns the number of tasks with D < P, placeholders
// excepted.
func (s *Summary) ShortDeadlines() int { return s.short }

// MinP returns the shortest period, or a lower bound on it when Loose;
// math.MaxInt64 for the empty set.
func (s *Summary) MinP() int64 {
	if s.n == 0 {
		return math.MaxInt64
	}
	return s.minP
}

// MinD returns the shortest deadline of a non-placeholder task, or a lower
// bound on it when Loose; math.MaxInt64 when there is none.
func (s *Summary) MinD() int64 {
	if s.n == 0 {
		return math.MaxInt64
	}
	return s.minD
}

// Loose reports whether MinP or MinD lies below the true minimum: no task
// holds it any more. (A MinD of math.MaxInt64 held by no task is exact:
// it means there is no deadline.)
func (s *Summary) Loose() bool {
	return s.n != 0 && (s.atP == 0 || (s.atD == 0 && s.minD != math.MaxInt64))
}

// Decide answers the feasibility test from the summary alone when one of
// its early exits applies, returning the Result TestScratch would return
// (Utilization aside, which is left 0) and true. It returns false when
// only the demand walk can decide; the Result then carries the closed-form
// busy period, or 0 when the fixed-point iteration must find it.
//
// Loose bounds keep every answer sound: a bound below the true minimum can
// only fail the closed-form comparison, never pass it wrongly.
func (s *Summary) Decide() (Result, bool) {
	res := Result{Verdict: Feasible, MinSlack: math.MaxInt64}
	switch {
	case s.n == 0:
		return res, true
	case s.Over:
		// First constraint (Eq. 18.2): utilization at most 100%.
		res.Verdict = InfeasibleUtilization
		return res, true
	case s.short == 0:
		// With every D >= P, h(t) <= U*t, so U <= 1 is exact (the paper's
		// Liu & Layland remark, widened from D == P).
		res.ShortCircuit = true
		return res, true
	}
	// Second constraint (Eq. 18.3-18.5) over the first synchronous busy
	// period. With sum C <= min P every ceil(sum C / P_i) is 1, so the
	// iteration's first iterate sum C is its fixed point (BusyPeriod would
	// reject a sum that reached math.MaxInt64); when it ends before the
	// shortest deadline no checkpoint m*P_i + D_i lies in [1, busy period].
	if c := s.SumC(); c < math.MaxInt64 && c <= s.minP {
		res.BusyPeriod = c
		return res, c < s.minD
	}
	return res, false
}

// Test runs the feasibility test on tasks for a caller that keeps their
// summary s live, such as the admission kernel: it takes U > 1 from s.Over
// instead of summing the exact rational utilization, and it leaves
// Utilization 0, as Decide does, so a caller that accepts the set never
// pays for the sum; one that reports the Result fills it in with
// UtilizationFloat(tasks). The Result is otherwise TestScratch's, field
// for field, even when s is Loose: a bound below the true minimum can only
// send Decide to the fixed-point iteration, which finds the same busy
// period, or to a walk that finds no checkpoint in it.
//
// cs is the caller's class table of tasks, rebuilt from them first when
// it is stale; with a nil cs the test builds one in scratch. tasks may
// hold empty slots (see Empty), which the test skips.
func (s *Summary) Test(tasks []Task, cs *Classes, opts Options, scratch *Scratch) Result {
	if !opts.SkipValidation {
		for _, t := range tasks {
			if Empty(t) {
				continue
			}
			if err := t.Validate(); err != nil {
				return Result{Verdict: InvalidTask, Err: err, MinSlack: math.MaxInt64}
			}
		}
	}
	return s.finish(tasks, cs, 0, opts, scratch)
}

// finish completes a test of tasks from their summary s and class table cs
// (nil: built in scratch), with u the reporting utilization: Decide, then
// the busy period and the walk, both over the classes. A closed-form busy
// period (sum C <= min P) holds at most one checkpoint per class, its D,
// since every P is at least the busy period; then the walk is a prefix sum
// over the deadlines in it (walkDeadlines).
func (s *Summary) finish(tasks []Task, cs *Classes, u float64, opts Options, scratch *Scratch) Result {
	res, done := s.Decide()
	res.Utilization = u
	if scratch != nil {
		scratch.reads = 0
	}
	if done {
		return res
	}
	if scratch == nil {
		scratch = new(Scratch)
	}
	if cs == nil {
		cs = &scratch.classes
		cs.MarkStale()
	}
	if cs.Stale() {
		scratch.reads = len(tasks)
		cs.Rebuild(tasks)
	}
	if res.BusyPeriod != 0 {
		return walkDeadlines(cs.All(), opts, scratch, res)
	}
	bp, ok := busyPeriod(cs.All(), s.SumC())
	if !ok {
		return Result{Verdict: Inconclusive, Err: ErrBusyPeriodDiverged, Utilization: u, MinSlack: math.MaxInt64}
	}
	res.BusyPeriod = bp
	return walk(cs.All(), opts, scratch, res)
}
