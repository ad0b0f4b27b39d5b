package altsched

import (
	"math/rand"
	"testing"

	"repro/internal/edf"
)

func repeatTask(t edf.Task, n int) []edf.Task {
	out := make([]edf.Task, n)
	for i := range out {
		out[i] = t
	}
	return out
}

func TestNames(t *testing.T) {
	if (EDF{}).Name() != "EDF" || (DM{}).Name() != "DM" || (FIFO{}).Name() != "FIFO" {
		t.Error("analysis names changed; reports depend on them")
	}
	if len(All()) != 3 {
		t.Error("All() should return the three analyses")
	}
}

func TestEmptySetFeasibleEverywhere(t *testing.T) {
	for _, a := range All() {
		if !a.Feasible(nil) {
			t.Errorf("%s rejects the empty set", a.Name())
		}
	}
}

func TestInvalidTasksRejectedEverywhere(t *testing.T) {
	bad := []edf.Task{{C: 0, P: 10, D: 10}}
	for _, a := range All() {
		if a.Feasible(bad) {
			t.Errorf("%s accepted an invalid task", a.Name())
		}
	}
}

func TestFIFOKnownCapacity(t *testing.T) {
	// Paper uplink task with SDPS split: C=3, D=20. FIFO requires the
	// whole synchronous backlog (3n) to finish by every deadline: n <= 6
	// — same as EDF here because all deadlines are equal.
	task := edf.Task{C: 3, P: 100, D: 20}
	if got := CapacityOnLink(FIFO{}, task, 50); got != 6 {
		t.Errorf("FIFO capacity = %d, want 6", got)
	}
}

func TestFIFOWeakerThanEDFOnMixedDeadlines(t *testing.T) {
	// One tight task + filler: EDF orders by deadline and fits; FIFO
	// must fit the whole backlog before the tight deadline and rejects.
	tasks := []edf.Task{
		{C: 2, P: 100, D: 4},
		{C: 3, P: 100, D: 60},
		{C: 3, P: 100, D: 60},
	}
	if !(EDF{}).Feasible(tasks) {
		t.Fatal("EDF should accept this set")
	}
	if (FIFO{}).Feasible(tasks) {
		t.Error("FIFO should reject: busy period 8 exceeds tight deadline 4")
	}
}

func TestDMKnownCases(t *testing.T) {
	cases := []struct {
		name  string
		tasks []edf.Task
		want  bool
	}{
		{"single", []edf.Task{{C: 3, P: 100, D: 20}}, true},
		{"six identical fit", repeatTask(edf.Task{C: 3, P: 100, D: 20}, 6), true},
		{"seven identical overflow", repeatTask(edf.Task{C: 3, P: 100, D: 20}, 7), false},
		{
			"classic RTA example",
			// C/P/D = 1/4/4, 2/6/6, 3/12/12: R3 fixed point is 10
			// (3 + ceil(10/4)*1 + ceil(10/6)*2 = 3 + 3 + 4 = 10).
			[]edf.Task{{C: 1, P: 4, D: 4}, {C: 2, P: 6, D: 6}, {C: 3, P: 12, D: 12}},
			true,
		},
		{
			"classic example at exact response time",
			[]edf.Task{{C: 1, P: 4, D: 4}, {C: 2, P: 6, D: 6}, {C: 3, P: 12, D: 10}},
			true, // R3 = 10 = D3
		},
		{
			"classic example tightened below response time",
			[]edf.Task{{C: 1, P: 4, D: 4}, {C: 2, P: 6, D: 6}, {C: 3, P: 12, D: 9}},
			false, // R3 = 10 > 9
		},
		{
			"unconstrained deadline rejected conservatively",
			[]edf.Task{{C: 1, P: 4, D: 8}},
			false,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := (DM{}).Feasible(tc.tasks); got != tc.want {
				t.Errorf("DM.Feasible = %v, want %v", got, tc.want)
			}
		})
	}
}

func TestDMNeverBeatsEDF(t *testing.T) {
	// EDF is optimal on one processor: anything DM schedules, EDF
	// schedules. Fuzz the implication DM ⇒ EDF.
	rng := rand.New(rand.NewSource(13))
	checked := 0
	for trial := 0; trial < 500; trial++ {
		n := rng.Intn(6) + 1
		tasks := make([]edf.Task, 0, n)
		for i := 0; i < n; i++ {
			p := int64(rng.Intn(30) + 2)
			c := int64(rng.Intn(int(p))/2 + 1)
			d := c + rng.Int63n(p-c+1) // constrained: c <= d <= p
			tasks = append(tasks, edf.Task{C: c, P: p, D: d})
		}
		if (DM{}).Feasible(tasks) {
			checked++
			if !(EDF{}).Feasible(tasks) {
				t.Fatalf("DM accepted what EDF rejected: %v", tasks)
			}
		}
	}
	if checked == 0 {
		t.Fatal("fuzz never produced a DM-feasible set")
	}
}

func TestFIFONeverBeatsEDF(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	checked := 0
	for trial := 0; trial < 500; trial++ {
		n := rng.Intn(6) + 1
		tasks := make([]edf.Task, 0, n)
		for i := 0; i < n; i++ {
			p := int64(rng.Intn(40) + 2)
			c := int64(rng.Intn(int(p)) + 1)
			d := c + rng.Int63n(2*p)
			tasks = append(tasks, edf.Task{C: c, P: p, D: d})
		}
		if (FIFO{}).Feasible(tasks) {
			checked++
			if !(EDF{}).Feasible(tasks) {
				t.Fatalf("FIFO accepted what EDF rejected: %v", tasks)
			}
		}
	}
	if checked == 0 {
		t.Fatal("fuzz never produced a FIFO-feasible set")
	}
}

func TestCapacityOnLinkOrdering(t *testing.T) {
	// On the paper's SDPS uplink task, EDF >= DM >= FIFO in admitted
	// capacity (they coincide at 6 for identical tasks; use a mixed
	// baseline task to spread them).
	task := edf.Task{C: 2, P: 50, D: 11}
	edfCap := CapacityOnLink(EDF{}, task, 100)
	dmCap := CapacityOnLink(DM{}, task, 100)
	fifoCap := CapacityOnLink(FIFO{}, task, 100)
	if edfCap < dmCap || dmCap < fifoCap {
		t.Errorf("capacity order broken: EDF=%d DM=%d FIFO=%d", edfCap, dmCap, fifoCap)
	}
	if edfCap == 0 {
		t.Error("EDF capacity 0 for a trivially schedulable task")
	}
}
