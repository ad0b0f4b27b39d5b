package edf

import (
	"math"
	"testing"
)

// patchedSummary builds a summary of tasks the way the admission kernel
// does, by patching: extra tasks are added first and removed last, and a
// task whose mode is 1 enters as a placeholder (D = 0), mode 2 with a
// shorter deadline, or mode 3 with a shorter period, and is then replaced
// by itself. Removing the extras and raising the deadlines and periods
// may leave the bounds loose.
func patchedSummary(tasks, extra []Task, mode []byte) Summary {
	var s Summary
	for _, e := range extra {
		s.Add(e)
	}
	for i, t := range tasks {
		switch mode[i%len(mode)] % 4 {
		case 1:
			first := Task{C: t.C, P: t.P}
			s.Add(first)
			s.Replace(first, t)
		case 2:
			first := Task{C: t.C, P: t.P, D: max(1, t.D/2)}
			s.Add(first)
			s.Replace(first, t)
		case 3:
			first := Task{C: t.C, P: max(1, t.P/2), D: t.D}
			s.Add(first)
			s.Replace(first, t)
		default:
			s.Add(t)
		}
	}
	for _, e := range extra {
		s.Remove(e)
	}
	s.Over = UtilizationExceedsOne(tasks)
	return s
}

// checkSummary fails t unless the summary's exact fields equal a fresh
// computation over tasks, its bounds lie at or below the true minima
// (exactly on them unless Loose), its decision equals the reference
// walk's Result field for field wherever it decides, and Summary.Test —
// the full test a rejected or undecided link runs — equals the reference
// under opts but for Utilization, which it leaves 0.
func checkSummary(t *testing.T, tasks []Task, s Summary, opts Options) {
	t.Helper()
	short := 0
	minP, minD := int64(math.MaxInt64), int64(math.MaxInt64)
	for _, task := range tasks {
		if task.D < task.P {
			short++
		}
		minP, minD = min(minP, task.P), min(minD, task.D)
	}
	if s.SumC() != TotalCapacity(tasks) || s.ShortDeadlines() != short || s.Over != UtilizationExceedsOne(tasks) {
		t.Fatalf("%v: sum C %d, D < P %d, over %v; want %d, %d, %v",
			tasks, s.SumC(), s.ShortDeadlines(), s.Over, TotalCapacity(tasks), short, UtilizationExceedsOne(tasks))
	}
	if s.MinP() > minP || s.MinD() > minD || (!s.Loose() && (s.MinP() != minP || s.MinD() != minD)) {
		t.Fatalf("%v: bounds min P %d, min D %d (loose %v) against true %d, %d", tasks, s.MinP(), s.MinD(), s.Loose(), minP, minD)
	}

	want := walkReference(tasks, opts)
	noU := want
	noU.Utilization = 0
	if got := s.Test(tasks, nil, opts, nil); !sameResult(got, noU) {
		t.Fatalf("%v: Summary.Test = %+v, walk = %+v", tasks, got, want)
	}
	var scratch Scratch
	if got := s.Test(tasks, nil, opts, &scratch); !sameResult(got, noU) {
		t.Fatalf("%v: Summary.Test with a Scratch = %+v, walk = %+v", tasks, got, want)
	}
	var live Classes
	for _, task := range tasks {
		live.Add(task)
	}
	if got := s.Test(tasks, &live, opts, &scratch); !sameResult(got, noU) {
		t.Fatalf("%v: Summary.Test with a live class table = %+v, walk = %+v", tasks, got, want)
	}
	if got := TestScratch(tasks, opts, nil); !sameResult(got, want) {
		t.Fatalf("%v: TestScratch = %+v, walk = %+v", tasks, got, want)
	}
	res, ok := s.Decide()
	if ok {
		res.Utilization = want.Utilization
		if !sameResult(res, want) {
			t.Fatalf("%v: Decide = %+v, walk = %+v", tasks, res, want)
		}
		return
	}
	if s.Loose() {
		exact := s
		exact.Rescan(tasks)
		if exact.Loose() || exact != fresh(tasks) {
			t.Fatalf("%v: rescan %+v, fresh summary %+v", tasks, exact, fresh(tasks))
		}
		checkSummary(t, tasks, exact, opts)
		return
	}
	// An exact summary gives up only where the test needs the busy
	// period: never on an early exit, and with the closed form only when a
	// checkpoint lies in it.
	if want.Verdict == InfeasibleUtilization || want.ShortCircuit || (res.BusyPeriod != 0 && want.Checked == 0 && want.Verdict != Inconclusive) {
		t.Fatalf("%v: exact summary undecided (busy %d), walk = %+v", tasks, res.BusyPeriod, want)
	}
}

// fresh summarizes tasks the way TestScratch does.
func fresh(tasks []Task) Summary {
	var s Summary
	for _, t := range tasks {
		s.Add(t)
	}
	s.Over = UtilizationExceedsOne(tasks)
	return s
}

func TestSummaryDecisionEdges(t *testing.T) {
	const maxI = math.MaxInt64
	cases := []struct {
		name    string
		tasks   []Task
		decided bool
	}{
		{"empty set", nil, true},
		{"sum C equals min P, past min D", []Task{{C: 3, P: 10, D: 5}, {C: 7, P: 10, D: 8}}, false},
		{"sum C is min D - 1", []Task{{C: 2, P: 100, D: 7}, {C: 4, P: 50, D: 9}}, true},
		{"sum C equals min D", []Task{{C: 2, P: 100, D: 6}, {C: 4, P: 50, D: 9}}, false},
		{"sum C equals min P below min D", []Task{{C: 4, P: 10, D: 12}, {C: 6, P: 10, D: 9}}, false},
		{"sum C one past min P", []Task{{C: 4, P: 10, D: 5}, {C: 7, P: 40, D: 30}}, false},
		{"every D equals P", repeatTask(Task{C: 1, P: 4, D: 4}, 4), true},
		{"D equals P but one", []Task{{C: 1, P: 4, D: 4}, {C: 1, P: 8, D: 7}}, true},
		{"D equals P at the busy period's end", []Task{{C: 2, P: 4, D: 4}, {C: 2, P: 8, D: 7}}, false},
		{"U above 1", repeatTask(Task{C: 3, P: 100, D: 100}, 34), true},
		{"sum C reaches MaxInt64 at U = 1", []Task{{C: maxI - 5, P: maxI, D: maxI - 1}, {C: 5, P: maxI, D: maxI - 1}}, false},
		{"sum C beyond MaxInt64", []Task{{C: maxI - 1, P: maxI, D: maxI - 1}, {C: maxI - 1, P: maxI, D: maxI - 1}}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, mode := range [][]byte{{0}, {1}, {2}, {3}, {2, 1, 3}} {
				for _, extra := range [][]Task{nil, {{C: 1, P: 2, D: 1}}, {{C: 1, P: 1 << 40, D: 1}}, {{C: 1, P: 2, D: 1 << 40}}, {{C: 1, P: 3, D: 3}, {C: 2, P: 5, D: 2}}} {
					s := patchedSummary(tc.tasks, extra, mode)
					checkSummary(t, tc.tasks, s, Options{})
				}
			}
			exact := fresh(tc.tasks)
			if _, ok := exact.Decide(); ok != tc.decided {
				t.Fatalf("exact summary decided = %v, want %v", ok, tc.decided)
			}
		})
	}
}

// TestSummarySaturation drives sum C past MaxInt64 with the first
// constraint forced open, which no valid task set reaches (every P is at
// most MaxInt64, so such a sum means U > 1): the summary must saturate
// like TotalCapacity, refuse the closed form, and come back exact when
// the load drains.
func TestSummarySaturation(t *testing.T) {
	const maxI = math.MaxInt64
	big := Task{C: maxI - 1, P: maxI, D: maxI - 1}
	small := Task{C: 3, P: maxI, D: 10}
	var s Summary
	s.Add(small)
	s.Add(big)
	s.Add(big)
	if s.SumC() != maxI || s.SumC() != TotalCapacity([]Task{small, big, big}) {
		t.Fatalf("saturated sum C = %d, want MaxInt64", s.SumC())
	}
	if res, ok := s.Decide(); ok || res.BusyPeriod != 0 {
		t.Fatalf("saturated summary: decided %v busy %d, want the fixed-point iteration", ok, res.BusyPeriod)
	}
	s.Remove(big) // 3 + MaxInt64 - 1: still past the ceiling
	if s.SumC() != maxI {
		t.Fatalf("after one removal sum C = %d, want MaxInt64", s.SumC())
	}
	s.Remove(small)
	if res, ok := s.Decide(); ok || res.BusyPeriod != maxI-1 || s.SumC() != maxI-1 {
		t.Fatalf("drained summary: %+v decided %v sum %d, want the closed-form busy period %d", res, ok, s.SumC(), int64(maxI-1))
	}
}

// TestSummaryPlaceholderNeverLoosens pins the placeholder rule: a task
// entering with D = 0 and then partitioned leaves an exact summary, and a
// placeholder alone counts toward sum C and min P only.
func TestSummaryPlaceholderNeverLoosens(t *testing.T) {
	var s Summary
	s.Add(Task{C: 1, P: 100, D: 40})
	ph := Task{C: 2, P: 50}
	s.Add(ph)
	if s.SumC() != 3 || s.MinP() != 50 || s.MinD() != 40 || s.ShortDeadlines() != 1 {
		t.Fatalf("with placeholder: sum %d min P %d min D %d short %d", s.SumC(), s.MinP(), s.MinD(), s.ShortDeadlines())
	}
	s.Replace(ph, Task{C: 2, P: 50, D: 30})
	if s.Loose() || s.MinD() != 30 || s.ShortDeadlines() != 2 {
		t.Fatalf("after partitioning: loose %v min D %d short %d", s.Loose(), s.MinD(), s.ShortDeadlines())
	}
}

// TestSummaryTieKeepsBoundExact: the shortest period and deadline stay
// exact while any task holds them, so removing or raising one of two
// tasks at the minimum leaves the summary exact, and only the last
// holder's leaving loosens it. A Replace that keeps the minimum keeps it
// exact even for the only holder.
func TestSummaryTieKeepsBoundExact(t *testing.T) {
	leaves := []struct {
		name  string
		leave func(s *Summary, t Task)
	}{
		{"remove", func(s *Summary, t Task) { s.Remove(t) }},
		{"replace", func(s *Summary, t Task) { s.Replace(t, Task{C: t.C, P: 3 * t.P, D: 3 * t.D}) }},
	}
	cases := []struct {
		name        string
		a, b, other Task
		minP, minD  int64
	}{
		{"tie at min D", Task{C: 1, P: 100, D: 40}, Task{C: 2, P: 150, D: 40}, Task{C: 1, P: 90, D: 80}, 90, 40},
		{"tie at min P", Task{C: 1, P: 100, D: 50}, Task{C: 2, P: 100, D: 60}, Task{C: 1, P: 200, D: 40}, 100, 40},
	}
	for _, tc := range cases {
		for _, l := range leaves {
			t.Run(tc.name+"/"+l.name, func(t *testing.T) {
				var s Summary
				s.Add(tc.a)
				s.Add(tc.b)
				s.Add(tc.other)
				l.leave(&s, tc.a)
				if s.Loose() || s.MinP() != tc.minP || s.MinD() != tc.minD {
					t.Fatalf("one of two holders gone: loose %v min P %d min D %d, want exact %d, %d", s.Loose(), s.MinP(), s.MinD(), tc.minP, tc.minD)
				}
				l.leave(&s, tc.b)
				if !s.Loose() {
					t.Fatalf("last holder gone: summary still exact at min P %d min D %d", s.MinP(), s.MinD())
				}
			})
		}
	}
	var s Summary
	s.Add(Task{C: 1, P: 100, D: 40})
	s.Add(Task{C: 1, P: 200, D: 80})
	s.Replace(Task{C: 1, P: 100, D: 40}, Task{C: 5, P: 100, D: 40})
	if s.Loose() || s.MinP() != 100 || s.MinD() != 40 || s.SumC() != 6 {
		t.Fatalf("same-minimum replace: loose %v min P %d min D %d sum C %d", s.Loose(), s.MinP(), s.MinD(), s.SumC())
	}
}

// FuzzSummaryDecisionMatchesTest builds summaries by patching (see
// patchedSummary) over random valid task sets — scaled up to near the
// int64 ceiling, with deadlines on both sides of the period — and checks
// them against the reference walk with checkSummary, under a checkpoint
// cap that sometimes bites.
func FuzzSummaryDecisionMatchesTest(f *testing.F) {
	f.Add([]byte{0, 0, 200, 3, 40, 200, 2, 60})
	f.Add([]byte{0, 1, 10, 3, 4, 10, 7, 7, 40, 1, 1})
	f.Add([]byte{2, 2, 100, 2, 6, 50, 4, 9, 3, 1, 0})
	f.Add([]byte{0x80, 5, 1, 0, 1, 1, 3, 4})
	f.Add([]byte{13, 3, 250, 9, 120, 250, 7, 33, 250, 0, 249})
	f.Add([]byte{0, 4, 40, 1, 0, 40, 1, 1, 40, 1, 2}) // a capped walk in a closed-form busy period
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		huge := data[0]&0x80 != 0
		scale := int64(1) << (data[0] % 48)
		var tasks, extra []Task
		for i := 2; i+2 < len(data) && len(tasks)+len(extra) < 12; i += 3 {
			var task Task
			if huge {
				c := math.MaxInt64/int64(1+data[i]%4) - int64(data[i+1])
				task = Task{C: c, P: math.MaxInt64, D: max(c, math.MaxInt64-int64(data[i+2]))}
			} else {
				p := 1 + int64(data[i])
				c := 1 + int64(data[i+1])%min(p, 16)
				d := c + int64(data[i+2])%(2*p)
				task = Task{C: c * scale, P: p * scale, D: d * scale}
			}
			if data[i+2]%5 == 4 {
				extra = append(extra, task)
			} else {
				tasks = append(tasks, task)
			}
		}
		opts := Options{MaxCheckpoints: int(data[1]>>2) % 8} // 0: the default cap
		checkSummary(t, tasks, patchedSummary(tasks, extra, data[1:2]), opts)
	})
}
