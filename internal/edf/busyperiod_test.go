package edf

import (
	"math"
	"testing"
)

// walkReference is Test without the closed-form busy period: every set
// that reaches the demand criterion gets its busy period from BusyPeriod's
// fixed-point iteration and is walked by demandCheckpoints.
func walkReference(tasks []Task, opts Options) Result {
	res := Result{Verdict: Feasible, MinSlack: math.MaxInt64}
	if !opts.SkipValidation {
		if err := ValidateTasks(tasks); err != nil {
			return Result{Verdict: InvalidTask, Err: err, MinSlack: math.MaxInt64}
		}
	}
	if len(tasks) == 0 {
		return res
	}
	res.Utilization = UtilizationFloat(tasks)
	if UtilizationExceedsOne(tasks) {
		res.Verdict = InfeasibleUtilization
		return res
	}
	if DeadlinesCoverPeriods(tasks) {
		res.ShortCircuit = true
		return res
	}
	bp, ok := BusyPeriod(tasks)
	if !ok {
		return Result{Verdict: Inconclusive, Err: ErrBusyPeriodDiverged, Utilization: res.Utilization, MinSlack: math.MaxInt64}
	}
	res.BusyPeriod = bp
	return walk(tasks, opts, nil, res)
}

// sameResult compares every Result field, errors by message.
func sameResult(a, b Result) bool {
	if (a.Err == nil) != (b.Err == nil) || (a.Err != nil && a.Err.Error() != b.Err.Error()) {
		return false
	}
	a.Err, b.Err = nil, nil
	return a == b
}

// checkClosedForm fails t unless Test (with and without a Scratch) equals
// the reference walk on tasks.
func checkClosedForm(t *testing.T, tasks []Task, opts Options) Result {
	t.Helper()
	want := walkReference(tasks, opts)
	if got := Test(tasks, opts); !sameResult(got, want) {
		t.Fatalf("%v: Test = %+v, walk = %+v", tasks, got, want)
	}
	var s Scratch
	if got := TestScratch(tasks, opts, &s); !sameResult(got, want) {
		t.Fatalf("%v: TestScratch = %+v, walk = %+v", tasks, got, want)
	}
	return want
}

func TestBusyPeriodClosedFormMatchesWalk(t *testing.T) {
	const maxI = math.MaxInt64
	cases := []struct {
		name    string
		tasks   []Task
		opts    Options
		verdict Verdict
		bp      int64
		checked int
	}{
		{"star link: 100 unit tasks, one checkpoint-free busy period",
			repeatTask(Task{C: 1, P: 10000, D: 2000}, 100), Options{}, Feasible, 100, 0},
		{"sum C equals min P",
			[]Task{{C: 3, P: 10, D: 5}, {C: 7, P: 10, D: 8}}, Options{}, InfeasibleDemand, 10, 2},
		{"sum C one past min P: the iteration decides",
			[]Task{{C: 4, P: 10, D: 5}, {C: 7, P: 40, D: 30}}, Options{}, Feasible, 15, 2},
		{"busy period min D - 1",
			[]Task{{C: 2, P: 100, D: 7}, {C: 4, P: 50, D: 9}}, Options{}, Feasible, 6, 0},
		{"busy period min D",
			[]Task{{C: 2, P: 100, D: 6}, {C: 4, P: 50, D: 9}}, Options{}, Feasible, 6, 1},
		{"demand violated inside the closed-form busy period",
			[]Task{{C: 3, P: 100, D: 6}, {C: 4, P: 50, D: 6}}, Options{}, InfeasibleDemand, 7, 1},
		{"checkpoint cap inside the closed-form busy period",
			[]Task{{C: 2, P: 40, D: 2}, {C: 1, P: 40, D: 3}}, Options{MaxCheckpoints: 1}, Inconclusive, 3, 1},
		{"sum C reaches MaxInt64 at U = 1",
			[]Task{{C: maxI - 5, P: maxI, D: maxI - 1}, {C: 5, P: maxI, D: maxI - 1}}, Options{}, Inconclusive, 0, 0},
		{"saturating sum C", // beyond MaxInt64, which with every P <= MaxInt64 means U > 1
			[]Task{{C: maxI - 1, P: maxI, D: maxI - 1}, {C: maxI - 1, P: maxI, D: maxI - 1}}, Options{}, InfeasibleUtilization, 0, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res := checkClosedForm(t, tc.tasks, tc.opts)
			if res.Verdict != tc.verdict || res.BusyPeriod != tc.bp || res.Checked != tc.checked {
				t.Fatalf("verdict %v busy %d checked %d, want %v busy %d checked %d",
					res.Verdict, res.BusyPeriod, res.Checked, tc.verdict, tc.bp, tc.checked)
			}
		})
	}
}

// FuzzBusyPeriodClosedForm compares Test with the reference walk on
// valid task sets drawn so that the total capacity often fits in the
// shortest period, most deadlines are shorter than their periods, and a
// checkpoint cap sometimes bites.
func FuzzBusyPeriodClosedForm(f *testing.F) {
	f.Add([]byte{0, 0, 200, 3, 40, 200, 2, 60})
	f.Add([]byte{2, 1, 2, 2, 1, 2, 3, 1})
	f.Add([]byte{13, 3, 250, 9, 120, 250, 7, 33, 250, 0, 249})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		scale := int64(1) << (data[0] % 24)
		opts := Options{MaxCheckpoints: int(data[1] % 8)} // 0: the default cap
		var tasks []Task
		for i := 2; i+2 < len(data) && len(tasks) < 12; i += 3 {
			p := 1 + int64(data[i])
			c := 1 + int64(data[i+1])%min(p, 16)
			d := c + int64(data[i+2])%p
			tasks = append(tasks, Task{C: c * scale, P: p * scale, D: d * scale})
		}
		checkClosedForm(t, tasks, opts)
		opts.SkipValidation = true
		checkClosedForm(t, tasks, opts)
	})
}
