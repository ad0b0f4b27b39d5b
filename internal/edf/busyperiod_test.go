package edf

import (
	"container/heap"
	"fmt"
	"math"
	"testing"
)

// walkReference is Test computed the long way, sharing no demand walk
// with it: every set that reaches the demand criterion gets its busy
// period from a per-task fixed-point iteration (refBusyPeriod) and is
// walked task by task through a heap of per-task deadline progressions
// (refWalk), never through the class table Test walks.
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
	bp, ok := refBusyPeriod(tasks)
	if !ok {
		return Result{Verdict: Inconclusive, Err: ErrBusyPeriodDiverged, Utilization: res.Utilization, MinSlack: math.MaxInt64}
	}
	res.BusyPeriod = bp
	return refWalk(tasks, opts, res)
}

// refAdd and refMul are a + b and a * b for a, b >= 0, clamped at
// math.MaxInt64.
func refAdd(a, b int64) int64 {
	if a > math.MaxInt64-b {
		return math.MaxInt64
	}
	return a + b
}

func refMul(a, b int64) int64 {
	if a != 0 && b > math.MaxInt64/a {
		return math.MaxInt64
	}
	return a * b
}

// refBusyPeriod is the least fixed point of L = sum ceil(L/P_i) * C_i from
// L = sum C_i, task by task; not ok when it saturates or runs past
// BusyPeriodLimit rounds.
func refBusyPeriod(tasks []Task) (int64, bool) {
	var l int64
	for _, t := range tasks {
		l = refAdd(l, t.C)
	}
	for iter := 0; iter < BusyPeriodLimit; iter++ {
		var next int64
		for _, t := range tasks {
			jobs := l / t.P
			if l%t.P != 0 {
				jobs++
			}
			next = refAdd(next, refMul(jobs, t.C))
		}
		if next == math.MaxInt64 {
			return 0, false
		}
		if next == l {
			return l, true
		}
		l = next
	}
	return 0, false
}

// refCursors is a min-heap of per-task deadline progressions.
type refCursors [][3]int64 // next checkpoint, period, capacity

func (h refCursors) Len() int           { return len(h) }
func (h refCursors) Less(i, j int) bool { return h[i][0] < h[j][0] }
func (h refCursors) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refCursors) Push(x any)        { *h = append(*h, x.([3]int64)) }
func (h *refCursors) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// refWalk evaluates h(t) <= t at every distinct checkpoint m*P_i + D_i up
// to res.BusyPeriod, merging the tasks' progressions one instance at a
// time, and completes res: the first violation, the least slack, the
// checkpoints evaluated, or Inconclusive once the cap stops the walk.
func refWalk(tasks []Task, opts Options, res Result) Result {
	maxChecks := opts.MaxCheckpoints
	if maxChecks <= 0 {
		maxChecks = DefaultMaxCheckpoints
	}
	bound := res.BusyPeriod
	h := &refCursors{}
	for _, t := range tasks {
		if t.D <= bound {
			heap.Push(h, [3]int64{t.D, t.P, t.C})
		}
	}
	var demand int64
	for h.Len() > 0 {
		t := (*h)[0][0]
		for h.Len() > 0 && (*h)[0][0] == t {
			cur := heap.Pop(h).([3]int64)
			demand = refAdd(demand, cur[2])
			if next := refAdd(t, cur[1]); next <= bound {
				heap.Push(h, [3]int64{next, cur[1], cur[2]})
			}
		}
		if res.Checked >= maxChecks {
			return Result{
				Verdict:     Inconclusive,
				Err:         fmt.Errorf("%w (limit %d, busy period %d)", ErrTooManyCheckpoints, maxChecks, bound),
				Utilization: res.Utilization,
				BusyPeriod:  bound,
				MinSlack:    math.MaxInt64,
				Checked:     res.Checked,
			}
		}
		res.Checked++
		if demand > t {
			res.Verdict, res.ViolationAt, res.DemandAt = InfeasibleDemand, t, demand
			return res
		}
		res.MinSlack = min(res.MinSlack, t-demand)
	}
	return res
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
