package edf

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
)

// simulateEDF runs a literal slot-by-slot preemptive EDF schedule of the
// synchronous release pattern over [0, horizon) and reports whether every
// job meets its absolute deadline. It is the ground truth the analytical
// test is checked against.
func simulateEDF(tasks []Task, horizon int64) bool {
	type job struct {
		deadline  int64
		remaining int64
	}
	var pending []job
	for now := int64(0); now < horizon; now++ {
		for _, t := range tasks {
			if now%t.P == 0 {
				pending = append(pending, job{deadline: now + t.D, remaining: t.C})
			}
		}
		// Pick the earliest-deadline pending job.
		best := -1
		for i := range pending {
			if pending[i].remaining == 0 {
				continue
			}
			if best == -1 || pending[i].deadline < pending[best].deadline {
				best = i
			}
		}
		if best >= 0 {
			pending[best].remaining--
		}
		// Any unfinished job whose deadline passed is a miss.
		for i := range pending {
			if pending[i].remaining > 0 && pending[i].deadline <= now+1 {
				return false
			}
		}
		// Compact finished jobs occasionally to bound memory.
		if len(pending) > 4*len(tasks)+8 {
			kept := pending[:0]
			for _, j := range pending {
				if j.remaining > 0 {
					kept = append(kept, j)
				}
			}
			pending = kept
		}
	}
	return true
}

// simulationHorizon picks a horizon long enough that the synchronous
// pattern either misses within it or is feasible: hyperperiod + max D.
func simulationHorizon(tasks []Task) int64 {
	h, ok := Hyperperiod(tasks)
	if !ok {
		return 0
	}
	var maxD int64
	for _, t := range tasks {
		if t.D > maxD {
			maxD = t.D
		}
	}
	return h + maxD
}

func TestFeasibleEmptySet(t *testing.T) {
	res := TestDefault(nil)
	if !res.OK() {
		t.Fatalf("empty set: %v, want feasible", res)
	}
}

func TestFeasibleKnownCases(t *testing.T) {
	cases := []struct {
		name  string
		tasks []Task
		want  Verdict
	}{
		{
			"six SDPS master channels fit",
			repeatTask(Task{C: 3, P: 100, D: 20}, 6),
			Feasible,
		},
		{
			"seventh SDPS master channel violates demand",
			repeatTask(Task{C: 3, P: 100, D: 20}, 7),
			InfeasibleDemand,
		},
		{
			"eleven ADPS master channels fit",
			repeatTask(Task{C: 3, P: 100, D: 33}, 11),
			Feasible,
		},
		{
			"twelfth ADPS master channel violates demand",
			repeatTask(Task{C: 3, P: 100, D: 33}, 12),
			InfeasibleDemand,
		},
		{
			"utilization overload",
			repeatTask(Task{C: 3, P: 100, D: 100}, 34),
			InfeasibleUtilization,
		},
		{
			"exactly full utilization implicit deadlines",
			repeatTask(Task{C: 4, P: 100, D: 100}, 25),
			Feasible,
		},
		{
			"invalid task",
			[]Task{{C: 0, P: 10, D: 10}},
			InvalidTask,
		},
		{
			"tight constrained deadlines fit exactly",
			// h(5) = 5, h(10) = 9 <= 10, busy period 9.
			[]Task{{C: 5, P: 10, D: 5}, {C: 4, P: 10, D: 10}},
			Feasible,
		},
		{
			"tight constrained deadlines overflow",
			// h(7) = 5 + 3 = 8 > 7.
			[]Task{{C: 5, P: 10, D: 5}, {C: 3, P: 10, D: 7}},
			InfeasibleDemand,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res := TestDefault(tc.tasks)
			if res.Verdict != tc.want {
				t.Fatalf("Test() = %v, want %v", res, tc.want)
			}
		})
	}
}

func TestFeasibleDiagnostics(t *testing.T) {
	res := TestDefault(repeatTask(Task{C: 3, P: 100, D: 20}, 7))
	if res.Verdict != InfeasibleDemand {
		t.Fatalf("verdict = %v, want InfeasibleDemand", res.Verdict)
	}
	if res.ViolationAt != 20 || res.DemandAt != 21 {
		t.Errorf("violation at t=%d h=%d, want t=20 h=21", res.ViolationAt, res.DemandAt)
	}
	if !strings.Contains(res.String(), "t=20") {
		t.Errorf("Result.String() = %q, should mention the violating instant", res.String())
	}
}

func TestFeasibleShortCircuitImplicitDeadlines(t *testing.T) {
	res := TestDefault(repeatTask(Task{C: 1, P: 4, D: 4}, 4))
	if !res.OK() || !res.ShortCircuit {
		t.Fatalf("implicit-deadline set: %v, want feasible via the utilization-only exit", res)
	}
	if res.Checked != 0 || res.BusyPeriod != 0 {
		t.Errorf("shortcut evaluated %d checkpoints over busy period %d, want neither", res.Checked, res.BusyPeriod)
	}
}

// TestFeasibleShortCircuitDeadlinesCoverPeriods pins the widened exit:
// with every D >= P, h(t) <= U*t, so U <= 1 decides alone. The second
// set has U == 1 exactly and a busy period of 10000022 slots with over
// five million checkpoints; the demand walk gives up Inconclusive at the
// DefaultMaxCheckpoints cap, while the exit proves it feasible at once.
func TestFeasibleShortCircuitDeadlinesCoverPeriods(t *testing.T) {
	for _, tasks := range [][]Task{
		{{C: 1, P: 4, D: 9}, {C: 2, P: 10, D: 10}, {C: 1, P: 5, D: 6}},
		{{C: 1, P: 2, D: 2}, {C: 5000011, P: 10000022, D: 10000023}},
	} {
		res := TestDefault(tasks)
		if !res.OK() || !res.ShortCircuit {
			t.Fatalf("%v: %v, want feasible via the D >= P exit", tasks, res)
		}
		if res.Checked != 0 || res.BusyPeriod != 0 {
			t.Errorf("%v: walked %d checkpoints over busy period %d, want neither", tasks, res.Checked, res.BusyPeriod)
		}
	}

	// The exit comes after the first constraint: D >= P never hides U > 1.
	over := []Task{{C: 3, P: 4, D: 9}, {C: 1, P: 2, D: 5}}
	if res := TestDefault(over); res.Verdict != InfeasibleUtilization || res.ShortCircuit {
		t.Fatalf("overloaded D >= P set: %v, want infeasible(utilization) without shortcut", res)
	}
	// One D < P task is enough to need the walk.
	mixed := []Task{{C: 1, P: 4, D: 9}, {C: 2, P: 10, D: 5}}
	if res := TestDefault(mixed); !res.OK() || res.ShortCircuit {
		t.Fatalf("mixed set: %v, want feasible via the demand walk", res)
	}
}

// FuzzDeadlinesCoverPeriods checks the utilization-only exit against the
// demand criterion it replaces: for random sets with every D >= P and
// U <= 1, Test must answer feasible with no walk, and Demand(t) <= t must
// hold at every checkpoint up to the busy period (capped, since U == 1
// busy periods reach the hyperperiod; the bound h(t) <= U*t holds for
// every t, so any prefix is a valid check). Each input byte triple is one
// task.
func FuzzDeadlinesCoverPeriods(f *testing.F) {
	f.Add([]byte{3, 1, 0, 9, 4, 5})
	f.Add([]byte{1, 0, 0, 1, 0, 0})
	f.Add([]byte{5, 2, 7, 9, 3, 0, 29, 7, 31, 1, 0, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		var tasks []Task
		for i := 0; i+2 < len(data) && len(tasks) < 8; i += 3 {
			p := 1 + int64(data[i]%64)
			c := 1 + int64(data[i+1])%p
			tasks = append(tasks, Task{C: c, P: p, D: p + int64(data[i+2]%64)})
		}
		for len(tasks) > 0 && UtilizationExceedsOne(tasks) {
			tasks = tasks[:len(tasks)-1]
		}
		res := TestDefault(tasks)
		if !res.OK() || res.Checked != 0 || (len(tasks) > 0 && !res.ShortCircuit) {
			t.Fatalf("%v: %v, want feasible with no checkpoint walked", tasks, res)
		}
		bound, ok := BusyPeriod(tasks)
		if !ok || bound > 1<<14 {
			bound = 1 << 14
		}
		Checkpoints(tasks, bound, func(cp int64) bool {
			if h := Demand(tasks, cp); h > cp {
				t.Fatalf("%v: h(%d) = %d > t; the exit would be unsound", tasks, cp, h)
			}
			return true
		})
	})
}

func TestFeasibleBusyPeriodShorterThanFirstDeadline(t *testing.T) {
	// Six C=3 tasks have busy period 18 < D=20: no checkpoints inside the
	// busy period at all, so the demand loop must accept.
	res := TestDefault(repeatTask(Task{C: 3, P: 100, D: 20}, 6))
	if !res.OK() {
		t.Fatalf("got %v, want feasible", res)
	}
	if res.BusyPeriod != 18 {
		t.Errorf("busy period = %d, want 18", res.BusyPeriod)
	}
	if res.Checked != 0 {
		t.Errorf("checked %d checkpoints, want 0 (none <= busy period)", res.Checked)
	}
}

func TestFeasibleCheckpointLimit(t *testing.T) {
	// U = 3/4, busy period 3, checkpoints {2, 3}: the second one trips the cap.
	tasks := []Task{{C: 2, P: 4, D: 2}, {C: 1, P: 4, D: 3}}
	res := Test(tasks, Options{MaxCheckpoints: 1})
	if res.Verdict != Inconclusive {
		t.Fatalf("verdict = %v, want Inconclusive with MaxCheckpoints=1", res.Verdict)
	}
	if !errors.Is(res.Err, ErrTooManyCheckpoints) {
		t.Errorf("err = %v, want ErrTooManyCheckpoints", res.Err)
	}
	if res.OK() {
		t.Error("Inconclusive result must not report OK")
	}
}

func TestFeasibleSkipValidation(t *testing.T) {
	// With SkipValidation the caller vouches for the tasks; a valid set must
	// still produce the same verdict.
	tasks := repeatTask(Task{C: 3, P: 100, D: 40}, 5)
	a := Test(tasks, Options{})
	b := Test(tasks, Options{SkipValidation: true})
	if a.Verdict != b.Verdict {
		t.Errorf("SkipValidation changed verdict: %v vs %v", a.Verdict, b.Verdict)
	}
}

func TestVerdictString(t *testing.T) {
	for v, want := range map[Verdict]string{
		Feasible:              "feasible",
		InfeasibleUtilization: "infeasible(utilization)",
		InfeasibleDemand:      "infeasible(demand)",
		InvalidTask:           "invalid-task",
		Inconclusive:          "inconclusive",
		Verdict(42):           "verdict(42)",
	} {
		if got := v.String(); got != want {
			t.Errorf("Verdict(%d).String() = %q, want %q", int(v), got, want)
		}
	}
}

// TestFeasibleAgreesWithSimulation is the central soundness/completeness
// check: on random small task sets the analytical verdict must match a
// literal EDF simulation over hyperperiod + max deadline.
func TestFeasibleAgreesWithSimulation(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	agreeFeasible, agreeInfeasible := 0, 0
	for trial := 0; trial < 400; trial++ {
		tasks := randomTaskSet(rng, 4, 12)
		if len(tasks) == 0 {
			continue
		}
		res := TestDefault(tasks)
		if res.Verdict == Inconclusive || res.Verdict == InvalidTask {
			t.Fatalf("trial %d: unexpected verdict %v for %v", trial, res, tasks)
		}
		if res.Verdict == InfeasibleUtilization {
			// A U > 1 set misses eventually, but with D > P the first miss
			// can fall beyond any fixed finite horizon; theory is the
			// authority here, so skip the simulation cross-check.
			continue
		}
		horizon := simulationHorizon(tasks)
		if horizon == 0 || horizon > 1<<16 {
			continue
		}
		simOK := simulateEDF(tasks, horizon)
		if res.OK() != simOK {
			t.Fatalf("trial %d: analysis=%v simulation=%v for %v", trial, res, simOK, tasks)
		}
		if simOK {
			agreeFeasible++
		} else {
			agreeInfeasible++
		}
	}
	if agreeFeasible == 0 || agreeInfeasible == 0 {
		t.Fatalf("degenerate trial mix: feasible=%d infeasible=%d; want both exercised", agreeFeasible, agreeInfeasible)
	}
}

// TestDemandCheckpointSufficiency verifies that checking h(t) <= t only at
// checkpoints is equivalent to checking every integer t in [1, busy period].
func TestDemandCheckpointSufficiency(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		tasks := randomFeasibleUtilSet(rng, 5, 15)
		if len(tasks) == 0 {
			continue
		}
		bp, ok := BusyPeriod(tasks)
		if !ok || bp > 1<<12 {
			continue
		}
		bruteOK := true
		var bruteT int64
		for tt := int64(1); tt <= bp; tt++ {
			if Demand(tasks, tt) > tt {
				bruteOK = false
				bruteT = tt
				break
			}
		}
		res := TestDefault(tasks)
		if res.Verdict == InfeasibleUtilization {
			continue
		}
		if res.OK() != bruteOK {
			t.Fatalf("trial %d: checkpoint test=%v brute(all t)=%v (first brute violation t=%d) for %v",
				trial, res, bruteOK, bruteT, tasks)
		}
	}
}

func TestFeasibleSetWrapper(t *testing.T) {
	if !FeasibleSet(repeatTask(Task{C: 3, P: 100, D: 20}, 6)) {
		t.Error("FeasibleSet(six) = false, want true")
	}
	if FeasibleSet(repeatTask(Task{C: 3, P: 100, D: 20}, 7)) {
		t.Error("FeasibleSet(seven) = true, want false")
	}
}
