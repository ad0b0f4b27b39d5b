package edf

import (
	"math"
	"math/rand"
	"testing"
)

// --- Incremental demand sweep: the running h maintained by
// demandCheckpoints must equal a fresh Demand() at every checkpoint. ---

func TestIncrementalDemandMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 300; trial++ {
		tasks := randomTaskSet(rng, 8, 40)
		bound := int64(rng.Intn(400))
		var s Scratch
		demandCheckpoints(s.table(tasks), bound, &s, func(cp, h int64) bool {
			if want := Demand(tasks, cp); h != want {
				t.Fatalf("trial %d: incremental h(%d)=%d, Demand=%d for %v (bound %d)",
					trial, cp, h, want, tasks, bound)
			}
			return true
		})
	}
}

func TestIncrementalDemandEarlyStopLeavesScratchReusable(t *testing.T) {
	tasks := []Task{{C: 1, P: 2, D: 2}, {C: 1, P: 3, D: 3}}
	var s Scratch
	demandCheckpoints(s.table(tasks), 100, &s, func(cp, h int64) bool { return cp < 4 })
	// A second sweep with the same scratch must see the full sequence again.
	var got []int64
	demandCheckpoints(s.table(tasks), 12, &s, func(cp, h int64) bool {
		got = append(got, cp)
		if want := Demand(tasks, cp); h != want {
			t.Fatalf("after early stop: h(%d)=%d, want %d", cp, h, want)
		}
		return true
	})
	want := []int64{2, 3, 4, 6, 8, 9, 10, 12}
	if len(got) != len(want) {
		t.Fatalf("checkpoints after reuse = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("checkpoints after reuse = %v, want %v", got, want)
		}
	}
}

// --- MinSlack diagnostics. ---

func TestResultMinSlack(t *testing.T) {
	// Single task C=3 D=4 P=10: checkpoints 4, 14, 24 within busy period 3?
	// Busy period is 3 (< D), so no checkpoints: MinSlack stays MaxInt64.
	r := TestDefault([]Task{{C: 3, P: 10, D: 4}})
	if !r.OK() || r.MinSlack != math.MaxInt64 {
		t.Fatalf("no-checkpoint set: %+v", r)
	}

	// Two tasks tight at t=4: h(4) = 2+2 = 4, slack 0.
	r = TestDefault([]Task{{C: 2, P: 10, D: 4}, {C: 2, P: 10, D: 4}})
	if !r.OK() || r.MinSlack != 0 {
		t.Fatalf("tight set: verdict=%v MinSlack=%d, want feasible slack 0", r.Verdict, r.MinSlack)
	}

	// Implicit deadlines short-circuit: MinSlack untouched.
	r = TestDefault([]Task{{C: 1, P: 4, D: 4}})
	if !r.ShortCircuit || r.MinSlack != math.MaxInt64 {
		t.Fatalf("shortcut set: %+v", r)
	}
}

func TestMinSlackMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 300; trial++ {
		tasks := randomFeasibleUtilSet(rng, 6, 25)
		r := TestDefault(tasks)
		if !r.OK() || r.ShortCircuit || r.Checked == 0 {
			continue
		}
		min := int64(math.MaxInt64)
		Checkpoints(tasks, r.BusyPeriod, func(cp int64) bool {
			if s := cp - Demand(tasks, cp); s < min {
				min = s
			}
			return true
		})
		if r.MinSlack != min {
			t.Fatalf("trial %d: MinSlack=%d, brute=%d for %v", trial, r.MinSlack, min, tasks)
		}
	}
}

// --- Overflow guards: saturating arithmetic at the int64 boundary. ---

const bigP = int64(math.MaxInt64)

func TestSaturatingHelpers(t *testing.T) {
	if got := addSat(math.MaxInt64, 1); got != math.MaxInt64 {
		t.Fatalf("addSat wrapped: %d", got)
	}
	if got := addSat(math.MaxInt64-5, 5); got != math.MaxInt64 {
		t.Fatalf("addSat boundary: %d", got)
	}
	if got := addSat(3, 4); got != 7 {
		t.Fatalf("addSat(3,4)=%d", got)
	}
	if got := mulSat(math.MaxInt64/2+1, 2); got != math.MaxInt64 {
		t.Fatalf("mulSat wrapped: %d", got)
	}
	if got := mulSat(0, math.MaxInt64); got != 0 {
		t.Fatalf("mulSat zero: %d", got)
	}
	if got := mulSat(math.MaxInt64, 1); got != math.MaxInt64 {
		t.Fatalf("mulSat identity: %d", got)
	}
}

func TestCeilDivNoOverflow(t *testing.T) {
	// The naive (a+b-1)/b wraps negative here; the guarded version must not.
	if got := ceilDiv(math.MaxInt64, 2); got != math.MaxInt64/2+1 {
		t.Fatalf("ceilDiv(MaxInt64, 2) = %d", got)
	}
	if got := ceilDiv(math.MaxInt64, math.MaxInt64); got != 1 {
		t.Fatalf("ceilDiv(max, max) = %d", got)
	}
	if got := ceilDiv(10, 3); got != 4 {
		t.Fatalf("ceilDiv(10,3) = %d", got)
	}
	if got := ceilDiv(9, 3); got != 3 {
		t.Fatalf("ceilDiv(9,3) = %d", got)
	}
}

func TestDemandSaturatesInsteadOfWrapping(t *testing.T) {
	// Two tasks each demanding ~MaxInt64 of capacity at t=MaxInt64: the
	// naive sum wraps negative (which would pass h <= t); the saturating
	// sum clamps at MaxInt64.
	tasks := []Task{
		{C: math.MaxInt64 - 1, P: bigP, D: math.MaxInt64 - 1},
		{C: math.MaxInt64 - 1, P: bigP, D: math.MaxInt64 - 1},
	}
	if got := Demand(tasks, math.MaxInt64); got != math.MaxInt64 {
		t.Fatalf("Demand wrapped: %d", got)
	}
	if got := Demand(tasks, 10); got != 0 {
		t.Fatalf("Demand below deadline: %d", got)
	}
}

func TestTotalCapacitySaturates(t *testing.T) {
	tasks := []Task{{C: math.MaxInt64 - 1, P: bigP, D: bigP}, {C: 100, P: bigP, D: bigP}}
	if got := TotalCapacity(tasks); got != math.MaxInt64 {
		t.Fatalf("TotalCapacity wrapped: %d", got)
	}
}

func TestBusyPeriodOverflowReportsNotOK(t *testing.T) {
	// Total capacity alone saturates, so the fixed point is unrepresentable.
	tasks := []Task{
		{C: math.MaxInt64 - 1, P: bigP, D: bigP},
		{C: math.MaxInt64 - 1, P: bigP, D: bigP},
	}
	if l, ok := BusyPeriod(tasks); ok {
		t.Fatalf("BusyPeriod converged on saturated workload: %d", l)
	}
}

func TestFeasibilityAtBoundaryIsExplicit(t *testing.T) {
	// Large-parameter set whose busy-period iteration saturates: the test
	// must return an explicit non-feasible verdict, never a wrapped
	// "feasible". (D < P forces the demand path past the L&L shortcut;
	// two huge-C tasks saturate the workload sum.)
	tasks := []Task{
		{C: math.MaxInt64 - 2, P: math.MaxInt64 - 1, D: math.MaxInt64 - 2},
		{C: math.MaxInt64 - 2, P: math.MaxInt64 - 1, D: math.MaxInt64 - 2},
	}
	r := TestDefault(tasks)
	if r.OK() {
		t.Fatalf("overflowing set reported feasible: %+v", r)
	}
	// Either the exact utilization constraint catches it (U > 1 here) or
	// the busy period reports divergence; both are sound rejections.
	if r.Verdict != InfeasibleUtilization && r.Verdict != Inconclusive {
		t.Fatalf("unexpected verdict %v", r.Verdict)
	}

	// A single huge task (U < 1, D < P): checkpoints at D only; must stay
	// conclusive and feasible with exact arithmetic.
	single := []Task{{C: 1 << 40, P: math.MaxInt64 - 1, D: math.MaxInt64 - 2}}
	r = TestDefault(single)
	if !r.OK() {
		t.Fatalf("single huge task rejected: %+v", r)
	}
}
