// Package altsched implements the alternative per-link scheduling
// analyses the paper's future-work section points at (§18.5: "Alternative
// communication models and scheduling algorithms could be explored as
// well"): a FIFO worst-case-delay admission test and a Deadline-Monotonic
// fixed-priority response-time analysis. Both plug into the same
// link-as-processor model as the EDF test, so experiments can compare
// admission capacity scheme-for-scheme.
package altsched

import (
	"repro/internal/edf"
)

// Analysis is one per-link schedulability test over the supposed task set
// of a link direction (same task model as the EDF analysis).
type Analysis interface {
	// Name identifies the analysis in reports.
	Name() string
	// Feasible reports whether the task set is schedulable on one link.
	Feasible(tasks []edf.Task) bool
}

// EDF wraps the paper's analysis in the Analysis interface.
type EDF struct{ Opts edf.Options }

// Name implements Analysis.
func (EDF) Name() string { return "EDF" }

// Feasible implements Analysis.
func (e EDF) Feasible(tasks []edf.Task) bool {
	return edf.Test(tasks, e.Opts).OK()
}

// FIFO is the no-priority baseline: the output queue transmits in arrival
// order. Under the synchronous worst case a frame of task i can find one
// full period's backlog of every task (including its own earlier frames)
// ahead of it, so its worst-case queueing delay is bounded by the total
// busy backlog. The admission test is therefore: the synchronous busy
// period must not exceed any task's deadline.
//
// The test is sufficient, not tight — FIFO with admission control this
// conservative accepts far fewer channels than EDF, which is exactly the
// comparison the experiments draw.
type FIFO struct{}

// Name implements Analysis.
func (FIFO) Name() string { return "FIFO" }

// Feasible implements Analysis.
func (FIFO) Feasible(tasks []edf.Task) bool {
	if err := edf.ValidateTasks(tasks); err != nil {
		return false
	}
	if len(tasks) == 0 {
		return true
	}
	if edf.UtilizationExceedsOne(tasks) {
		return false
	}
	bp, ok := edf.BusyPeriod(tasks)
	if !ok {
		return false
	}
	for _, t := range tasks {
		if bp > t.D {
			return false
		}
	}
	return true
}

// DM is Deadline-Monotonic fixed-priority scheduling with exact
// response-time analysis (Audsley/Joseph-Pandya iteration): tasks are
// prioritized by relative deadline (shorter = higher priority) and task
// i's worst-case response time is the least fixed point of
//
//	R = C_i + sum over higher-priority j of ceil(R/P_j) * C_j
//
// which must stay within D_i. Requires constrained deadlines (D <= P) for
// exactness; task sets violating that are rejected conservatively.
type DM struct{}

// Name implements Analysis.
func (DM) Name() string { return "DM" }

// Feasible implements Analysis.
func (DM) Feasible(tasks []edf.Task) bool {
	if err := edf.ValidateTasks(tasks); err != nil {
		return false
	}
	if len(tasks) == 0 {
		return true
	}
	for _, t := range tasks {
		if t.D > t.P {
			return false // RTA below assumes constrained deadlines
		}
	}
	if edf.UtilizationExceedsOne(tasks) {
		return false
	}
	byPrio := edf.SortByDeadline(tasks)
	for i, t := range byPrio {
		r := t.C
		for iter := 0; iter < 1<<16; iter++ {
			next := t.C
			for j := 0; j < i; j++ {
				hp := byPrio[j]
				next += ceilDiv(r, hp.P) * hp.C
			}
			if next == r {
				break
			}
			r = next
			if r > t.D {
				return false
			}
		}
		if r > t.D {
			return false
		}
	}
	return true
}

func ceilDiv(a, b int64) int64 { return (a + b - 1) / b }

// All returns the three analyses in comparison order.
func All() []Analysis {
	return []Analysis{EDF{}, DM{}, FIFO{}}
}

// CapacityOnLink returns how many identical tasks the analysis admits on
// one link before the first rejection — the per-link saturation point the
// comparison tables report.
func CapacityOnLink(a Analysis, task edf.Task, max int) int {
	tasks := make([]edf.Task, 0, max)
	for n := 1; n <= max; n++ {
		tasks = append(tasks, task)
		if !a.Feasible(tasks) {
			return n - 1
		}
	}
	return max
}
