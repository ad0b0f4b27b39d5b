package admit

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/edf"
)

// toyChan is a minimal channel for kernel tests: it traverses an
// arbitrary set of integer link keys and its "partition" is one shared
// per-link deadline.
type toyChan struct {
	id    ID
	c, p  int64
	links []int
	part  int64
}

var toyOps = &Ops[int, *toyChan, int64]{
	ID:     func(ch *toyChan) ID { return ch.id },
	UtilCP: func(ch *toyChan) (int64, int64) { return ch.c, ch.p },
	Links:  func(ch *toyChan) []int { return ch.links },
	Task: func(ch *toyChan, hop int) edf.Task {
		return edf.Task{C: ch.c, P: ch.p, D: ch.part}
	},
	Less:    func(a, b int) bool { return a < b },
	Part:    func(ch *toyChan, _ int64) int64 { return ch.part },
	SetPart: func(ch *toyChan, p int64) { ch.part = p },
	HasPart: func(ch *toyChan, p int64) bool { return ch.part == p },
	Validate: func(ch *toyChan, p int64) {
		if p < ch.c {
			panic(fmt.Sprintf("admit_test: deadline %d below C=%d", p, ch.c))
		}
	},
	Clone: func(ch *toyChan) *toyChan {
		c := *ch
		return &c
	},
}

func newToyEngine(cfg Config) *Engine[int, *toyChan, int64] {
	cfg.Feasibility.SkipValidation = true
	return NewEngine(toyOps, cfg)
}

// toyScheme partitions a channel by split. An adaptive one recomputes
// every channel on a touched link, a spec-only one the new channels only.
func toyScheme(adaptive bool, split func(*toyChan) int64) Scheme[*toyChan, int64] {
	return Scheme[*toyChan, int64]{
		Part:     func(ch *toyChan, _ []int64, _ int64) int64 { return split(ch) },
		Adaptive: func() bool { return adaptive },
	}
}

// constScheme partitions every channel on a touched link to the given
// deadline.
func constScheme(d int64) Scheme[*toyChan, int64] {
	return toyScheme(true, func(*toyChan) int64 { return d })
}

func TestApplyReportsChangedLinksAndIDs(t *testing.T) {
	e := newToyEngine(Config{})
	mk := func(links ...int) func(int, ID) *toyChan {
		return func(_ int, id ID) *toyChan {
			return &toyChan{id: id, c: 1, p: 100, links: links}
		}
	}
	scheme := constScheme(10)
	if _, rej := e.Apply(nil, 1, mk(1, 2), scheme); rej != nil {
		t.Fatalf("admit: %v", rej.Result)
	}
	if _, rej := e.Apply(nil, 1, mk(3, 4), scheme); rej != nil {
		t.Fatalf("admit: %v", rej.Result)
	}
	// A repartition to the same value must leave only the new channel's
	// links to sweep.
	if _, rej := e.Apply(nil, 1, mk(1, 3), scheme); rej != nil {
		t.Fatalf("admit: %v", rej.Result)
	}
	var swept []int
	for _, i := range e.changed {
		swept = append(swept, e.state.keys[i])
	}
	if !slices.Equal(swept, []int{1, 3}) {
		t.Fatalf("changed links = %v, want just the new channel's [1 3]", swept)
	}
}

func TestApplyPanicsOnInvalidPartition(t *testing.T) {
	e := newToyEngine(Config{})
	bad := constScheme(1) // below C=2
	defer func() {
		if recover() == nil {
			t.Error("invalid partition did not panic")
		}
	}()
	e.Apply(nil, 1, func(_ int, id ID) *toyChan {
		return &toyChan{id: id, c: 2, p: 100, links: []int{1}}
	}, bad)
}

func TestLinkSetDedupPreservesOrder(t *testing.T) {
	e := newToyEngine(Config{})
	st := e.State()
	for l := 0; l < 8; l++ {
		st.intern(l)
	}
	e.newSet()
	got := e.addToSet(nil, []int32{5, 3, 5, 1, 3, 5, 1})
	if want := []int32{5, 3, 1}; !slices.Equal(got, want) {
		t.Fatalf("addToSet = %v, want %v", got, want)
	}
	// A new epoch starts empty: the marks of the last set do not leak.
	e.newSet()
	long := make([]int32, 100)
	for i := range long {
		long[i] = int32(i % 7)
	}
	if got := e.addToSet(nil, long); !slices.Equal(got, []int32{0, 1, 2, 3, 4, 5, 6}) {
		t.Fatalf("addToSet(long) = %v", got)
	}
}

// TestParallelSweepDeterministic drives one saturating batch whose
// partition leaves every link from 40 up infeasible (two C=2 tasks
// against a deadline of 3 violate the demand criterion while staying
// individually valid): the sweep names the lowest failing link in sorted
// order after exactly its checks, and the rejection commits nothing.
func TestParallelSweepDeterministic(t *testing.T) {
	e := newToyEngine(Config{})
	scheme := toyScheme(false, func(ch *toyChan) int64 {
		if ch.links[0] >= 40 {
			return 3
		}
		return 10
	})
	_, rej := e.Apply(nil, 128, func(i int, id ID) *toyChan {
		return &toyChan{id: id, c: 2, p: 100, links: []int{i % 64}}
	}, scheme)
	if rej == nil || rej.Link != 40 || e.LinksChecked() != 41 {
		t.Fatalf("rejection %v after %d checks, want link 40 after 41", rej, e.LinksChecked())
	}
	if e.State().Len() != 0 {
		t.Fatal("rejected batch left channels committed")
	}
}

// TestSweepStopsAtSummaryFailure: once a link's summary proves it
// infeasible (U > 1), no later link in the sweep order can change the
// verdict, so the sweep neither asks their summaries nor tests them.
func TestSweepStopsAtSummaryFailure(t *testing.T) {
	e := newToyEngine(Config{})
	_, rej := e.Apply(nil, 24, func(i int, id ID) *toyChan {
		if i < 2 {
			return &toyChan{id: id, c: 50, p: 50, links: []int{0}} // two full-period tasks: U = 2
		}
		return &toyChan{id: id, c: 1, p: 50, links: []int{i}}
	}, toyScheme(false, func(ch *toyChan) int64 {
		return ch.c // D = C: a later link's busy period reaches its deadline
	}))
	if rej == nil || rej.Link != 0 || rej.Result.Verdict != edf.InfeasibleUtilization {
		t.Fatalf("rejection %+v, want link 0 over utilization", rej)
	}
	if !slices.Equal(e.sweepTest, []int32{0}) || e.LinksChecked() != 1 {
		t.Fatalf("sweep ran the full test at positions %v and counted %d checks, want only the failing first link", e.sweepTest, e.LinksChecked())
	}
}

// fixedHop1Engine is an engine whose channels' hop-1 tasks ignore the
// partition (D = P), and admit puts one channel of C = 2, P = 100 on the
// given links, repartitioning every channel on them to deadline d.
// Repartitioning a channel that crosses links 5 and 9 thus moves link 5
// and leaves link 9 alone.
func fixedHop1Engine() (e *Engine[int, *toyChan, int64], admit func(d int64, links ...int) *Rejection[int]) {
	ops := *toyOps
	ops.Task = func(ch *toyChan, hop int) edf.Task {
		if hop == 1 {
			return edf.Task{C: ch.c, P: ch.p, D: ch.p}
		}
		return edf.Task{C: ch.c, P: ch.p, D: ch.part}
	}
	e = NewEngine(&ops, Config{Feasibility: edf.Options{SkipValidation: true}})
	return e, func(d int64, links ...int) *Rejection[int] {
		_, rej := e.Apply(nil, 1, func(_ int, id ID) *toyChan {
			return &toyChan{id: id, c: 2, p: 100, links: links}
		}, constScheme(d))
		return rej
	}
}

// TestSweepSkipsCountOnlyReachedLinks: a skip sorted after the link a
// sweep rejects on was never reached, so it is no answer LinksChecked
// counts and must not count as a skip either. Channel 1 crosses links 5
// and 9, and repartitioning it does not move link 9 (fixedHop1Engine).
// The second admission fails on link 5, first in slack order, before
// link 9.
func TestSweepSkipsCountOnlyReachedLinks(t *testing.T) {
	e, admit := fixedHop1Engine()
	if rej := admit(10, 5, 9); rej != nil {
		t.Fatalf("first channel rejected: %v", rej.Result)
	}
	checked0, skips0 := e.LinksChecked(), e.SweepSkips()
	rej := admit(3, 5)
	if rej == nil || rej.Link != 5 {
		t.Fatalf("rejection %v, want link 5", rej)
	}
	if checked, skips := e.LinksChecked()-checked0, e.SweepSkips()-skips0; checked != 1 || skips != 0 {
		t.Fatalf("rejection counted %d checks and %d skips, want 1 and 0", checked, skips)
	}
}

// TestRolledBackLinkIsSkipped: a rejected decision under an adaptive
// scheme repartitions channel 1, whose link 9 it does not move, and the
// rollback restores channel 1's partition. The next decision repartitions
// channel 1 again, still without moving link 9: link 9 is in its sweep
// set and holds its committed tasks, so it counts as a check answered by
// a skip, with no test.
func TestRolledBackLinkIsSkipped(t *testing.T) {
	e, admit := fixedHop1Engine()
	if rej := admit(10, 5, 9); rej != nil {
		t.Fatalf("first channel rejected: %v", rej.Result)
	}
	if rej := admit(3, 5); rej == nil || rej.Link != 5 {
		t.Fatalf("rejection %v, want link 5", rej)
	}
	checked0, skips0 := e.LinksChecked(), e.SweepSkips()
	if rej := admit(20, 5); rej != nil {
		t.Fatalf("third channel rejected: %v", rej.Result)
	}
	if checked, skips := e.LinksChecked()-checked0, e.SweepSkips()-skips0; checked != 2 || skips != 1 {
		t.Fatalf("decision after the rollback counted %d checks and %d skips, want 2 and 1", checked, skips)
	}
	for _, i := range e.sweepLinks {
		if l := e.state.keys[i]; e.state.isMoved(i) == (l == 9) {
			t.Fatalf("link %d moved = %v, want link 9 alone skipped", l, e.state.isMoved(i))
		}
	}
}
