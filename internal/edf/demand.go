package edf

import "math"

// Saturating integer arithmetic. Demand analysis over adversarial task
// parameters (P or C near the int64 ceiling) must never wrap silently:
// a wrapped demand sum could make an infeasible set look feasible. All
// accumulation below clamps at math.MaxInt64 instead; a clamped value
// is a LOWER bound on the true quantity, so "h > t" conclusions drawn
// from it remain sound, and the busy-period iteration reports the
// overflow explicitly so the caller returns an Inconclusive verdict
// rather than an unsound "feasible".

// addSat returns a+b clamped to math.MaxInt64, for a, b >= 0.
func addSat(a, b int64) int64 {
	if a > math.MaxInt64-b {
		return math.MaxInt64
	}
	return a + b
}

// mulSat returns a*b clamped to math.MaxInt64, for a, b >= 0.
func mulSat(a, b int64) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	if a > math.MaxInt64/b {
		return math.MaxInt64
	}
	return a * b
}

// Demand computes the processor demand function h(t) of the task set: the
// total capacity of all jobs with both release and absolute deadline inside
// [0, t] under the synchronous release pattern. This is the paper's workload
// function h(n, t) (Eq. 18.3):
//
//	h(t) = sum over tasks with D_i <= t of (1 + floor((t - D_i)/P_i)) * C_i
//
// Demand(tasks, t) is nondecreasing in t and Demand(tasks, 0) == 0. The sum
// saturates at math.MaxInt64 instead of wrapping, so a returned h is always
// a lower bound on the true demand.
func Demand(tasks []Task, t int64) int64 {
	var h int64
	for _, task := range tasks {
		if task.D > t {
			continue
		}
		jobs := addSat(1, (t-task.D)/task.P)
		h = addSat(h, mulSat(jobs, task.C))
	}
	return h
}

// BusyPeriodLimit caps the fixed-point iteration in BusyPeriod. The
// iteration converges whenever U <= 1; the limit only guards against
// pathological inputs (U > 1) where the workload never drains.
const BusyPeriodLimit = 1 << 20

// BusyPeriod returns the length of the first synchronous busy period: the
// least fixed point L of
//
//	L(0)   = sum C_i
//	L(k+1) = sum ceil(L(k)/P_i) * C_i
//
// It is the interval during which the link is continuously non-idle when
// every task releases a job at time 0. If the iteration does not converge
// within BusyPeriodLimit rounds (only possible when U > 1), or the
// workload sum overflows int64 (clamped, never wrapped), ok is false and
// the caller must treat the analysis as inconclusive.
//
// Per Stankovic et al. (the paper's reference [6]), any EDF deadline miss
// under the synchronous pattern occurs within this interval, so the demand
// criterion h(t) <= t only needs checking for t <= BusyPeriod (Eq. 18.4).
func BusyPeriod(tasks []Task) (length int64, ok bool) {
	if len(tasks) == 0 {
		return 0, true
	}
	l := TotalCapacity(tasks)
	for iter := 0; iter < BusyPeriodLimit; iter++ {
		var next int64
		for _, t := range tasks {
			next = addSat(next, mulSat(ceilDiv(l, t.P), t.C))
		}
		if next == math.MaxInt64 {
			// Saturated: the true fixed point (if any) is beyond what the
			// demand sweep can examine without wrapping.
			return 0, false
		}
		if next == l {
			return l, true
		}
		l = next
	}
	return 0, false
}

// ceilDiv returns ceil(a/b) for a >= 0, b > 0, without intermediate
// overflow (the naive (a+b-1)/b wraps when a+b exceeds int64).
func ceilDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 {
		q++
	}
	return q
}

// deadlineHeap merges the per-task arithmetic progressions of absolute
// deadlines t = m*P_i + D_i (Eq. 18.5) in increasing order without
// materializing them. It is a hand-rolled binary min-heap rather than
// container/heap: the interface-based API boxes every popped cursor into
// an interface value, which costs one allocation per checkpoint — fatal
// for the admission sweep's 0 allocs/op budget.
type deadlineHeap []deadlineCursor

type deadlineCursor struct {
	next   int64 // next checkpoint value for this task
	period int64
	c      int64 // task capacity, added to the running demand per instance
}

// initHeap establishes the heap invariant over an arbitrary slice.
func (h deadlineHeap) initHeap() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

// down restores the invariant after h[i] grew.
func (h deadlineHeap) down(i int) {
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && h[r].next < h[l].next {
			m = r
		}
		if h[i].next <= h[m].next {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// Scratch holds reusable buffers for repeated feasibility testing. A
// verification sweep owns one Scratch and passes it to TestScratch so
// sweeps over thousands of links run allocation-free; the zero
// value is ready to use. A Scratch must not be shared between goroutines.
type Scratch struct {
	heap deadlineHeap
}

// Checkpoints calls fn for every distinct t in {m*P_i + D_i : m >= 0} with
// t <= bound, in strictly increasing order. Iteration stops early when fn
// returns false. These are the only instants at which the demand function
// increases, so they are the only instants the demand criterion must be
// evaluated at.
func Checkpoints(tasks []Task, bound int64, fn func(t int64) bool) {
	demandCheckpoints(tasks, bound, nil, func(t, _ int64) bool { return fn(t) })
}

// demandCheckpoints enumerates the distinct checkpoints t <= bound in
// strictly increasing order and calls fn(t, h) with h == Demand(tasks, t),
// maintained incrementally: every deadline instance popped off the merged
// progressions adds its task's capacity to the running sum exactly once.
// This turns the full feasibility sweep from O(m*n) (m checkpoints, each
// recomputing the n-task demand sum) into O(m log n), which is the
// difference between milliseconds and seconds on the admission
// controller's verify-bound links (n ≈ m ≈ thousands).
//
// Iteration stops early when fn returns false. s may be nil; a non-nil
// Scratch makes repeated sweeps allocation-free.
func demandCheckpoints(tasks []Task, bound int64, s *Scratch, fn func(t, h int64) bool) {
	var h deadlineHeap
	if s != nil {
		h = s.heap[:0]
	} else {
		h = make(deadlineHeap, 0, len(tasks))
	}
	for _, t := range tasks {
		if t.D <= bound {
			h = append(h, deadlineCursor{next: t.D, period: t.P, c: t.C})
		}
	}
	if s != nil {
		s.heap = h // retain the (possibly grown) buffer for reuse
	}
	h.initHeap()
	var demand int64
	for len(h) > 0 {
		t := h[0].next
		if t > bound {
			return // min exceeds bound, so every cursor does
		}
		// Consume every coincident instance at t before evaluating: h(t)
		// includes all jobs whose deadline is exactly t.
		for len(h) > 0 && h[0].next == t {
			demand = addSat(demand, h[0].c)
			if nxt := addSat(t, h[0].period); nxt <= bound {
				h[0].next = nxt
				h.down(0)
			} else {
				n := len(h) - 1
				h[0] = h[n]
				h = h[:n]
				h.down(0)
			}
		}
		if !fn(t, demand) {
			return
		}
	}
}

// CheckpointCount returns the number of distinct checkpoints in [1, bound].
// It is used for diagnostics and complexity reporting.
func CheckpointCount(tasks []Task, bound int64) int {
	n := 0
	Checkpoints(tasks, bound, func(int64) bool { n++; return true })
	return n
}
