// Package edf implements Earliest-Deadline-First schedulability theory for
// sets of periodic tasks, as used by the switch admission control in the
// switched-Ethernet real-time network of Hoang & Jonsson (IPPS 2004).
//
// Every physical link direction in the network is modelled as a
// pseudo-processor; the uplink or downlink part of an RT channel is a
// periodic task on that processor. All quantities are integer timeslots,
// where one slot is the transmission time of one maximal-sized Ethernet
// frame. The package provides:
//
//   - exact utilization computation (Liu & Layland first constraint),
//   - the processor demand function h(t) (the paper's workload function
//     h(n,t), Eq. 18.3),
//   - the synchronous busy period used to bound the demand check (Eq. 18.4),
//   - checkpoint enumeration t = m*P_i + d_i (Eq. 18.5),
//   - the combined feasibility test, which skips the demand walk when
//     every task has D >= P (then h(t) <= U*t, so U <= 1 is exact), and
//     when the busy period, sum C in closed form whenever that fits in
//     the shortest period, ends before the shortest deadline,
//   - Summary, the few numbers those early exits read (sum C, the D < P
//     count, the shortest period and deadline, U > 1). Test decides from
//     a fresh one; the admission kernel patches one per link as tasks
//     come and go and decides most links without reading their tasks.
//     Patching may leave the shortest period and deadline as lower
//     bounds, which keeps every proof of feasibility sound, and
//   - Classes, the deadline-class table the busy period and the demand
//     walk run over: one entry per distinct (D, P) with its task count
//     and capacity sum, so a walk reads classes, not tasks. Test builds
//     one; the admission kernel keeps one live per walked link.
package edf

import (
	"errors"
	"fmt"
	"sort"
)

// Task is one periodic task on a link pseudo-processor. For an RT channel
// {P_i, C_i, d_i} the uplink task is {C: C_i, P: P_i, D: d_iu} and the
// downlink task is {C: C_i, P: P_i, D: d_id}, per Eqs. 18.6-18.7. A task
// is three integers and no pointer: the admission kernel keeps every
// link's task set live, and a pointer-free slice costs the garbage
// collector nothing to scan.
type Task struct {
	C int64 // capacity (worst-case transmission demand) per period, in slots; > 0
	P int64 // period, in slots; >= C
	D int64 // relative deadline, in slots; >= C
}

// Validation errors returned by Task.Validate and ValidateTasks.
var (
	ErrNonPositiveC = errors.New("edf: task capacity C must be positive")
	ErrNonPositiveP = errors.New("edf: task period P must be positive")
	ErrNonPositiveD = errors.New("edf: task deadline D must be positive")
	ErrCExceedsP    = errors.New("edf: task capacity C exceeds period P")
	ErrCExceedsD    = errors.New("edf: task capacity C exceeds deadline D")
)

// Validate reports whether the task parameters are internally consistent.
// A task whose capacity exceeds its deadline can never meet that deadline
// (the capacity is the WCET of the supposed task, §18.4), and a capacity
// exceeding the period alone makes the task infeasible on any link.
func (t Task) Validate() error {
	switch {
	case t.C <= 0:
		return fmt.Errorf("%w (C=%d)", ErrNonPositiveC, t.C)
	case t.P <= 0:
		return fmt.Errorf("%w (P=%d)", ErrNonPositiveP, t.P)
	case t.D <= 0:
		return fmt.Errorf("%w (D=%d)", ErrNonPositiveD, t.D)
	case t.C > t.P:
		return fmt.Errorf("%w (C=%d > P=%d)", ErrCExceedsP, t.C, t.P)
	case t.C > t.D:
		return fmt.Errorf("%w (C=%d > D=%d)", ErrCExceedsD, t.C, t.D)
	}
	return nil
}

// String implements fmt.Stringer.
func (t Task) String() string {
	return fmt.Sprintf("task{C=%d P=%d D=%d}", t.C, t.P, t.D)
}

// ValidateTasks validates every task in the set, returning the first error.
func ValidateTasks(tasks []Task) error {
	for i, t := range tasks {
		if err := t.Validate(); err != nil {
			return fmt.Errorf("task %d: %w", i, err)
		}
	}
	return nil
}

// TotalCapacity returns the sum of all task capacities, i.e. the length of
// the initial synchronous workload burst L(0) used to seed the busy-period
// iteration. The sum saturates at math.MaxInt64 rather than wrapping.
func TotalCapacity(tasks []Task) int64 {
	var sum int64
	for _, t := range tasks {
		sum = addSat(sum, t.C)
	}
	return sum
}

// DeadlinesCoverPeriods reports whether every task has D >= P. In that
// case the utilization bound (first constraint) is both necessary and
// sufficient for EDF feasibility and the demand check can be skipped: each
// task contributes at most floor(t/P_i)*C_i <= t*C_i/P_i to h(t), so
// h(t) <= U*t <= t whenever U <= 1 (Baruah, Rosier & Howell 1990). The
// implicit-deadline case D == P the paper notes in §18.3.2 is the special
// case Liu & Layland proved. Test makes the same check through its
// Summary's D < P count.
func DeadlinesCoverPeriods(tasks []Task) bool {
	for _, t := range tasks {
		if t.D < t.P {
			return false
		}
	}
	return true
}

// SortByDeadline returns a copy of tasks ordered by increasing relative
// deadline, breaking ties by period then capacity. Diagnostic output uses
// this ordering so that reports are stable across runs.
func SortByDeadline(tasks []Task) []Task {
	out := make([]Task, len(tasks))
	copy(out, tasks)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].D != out[j].D {
			return out[i].D < out[j].D
		}
		if out[i].P != out[j].P {
			return out[i].P < out[j].P
		}
		return out[i].C < out[j].C
	})
	return out
}
