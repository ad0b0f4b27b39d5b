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
	Part:    func(ch *toyChan) int64 { return ch.part },
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

// constScheme partitions every channel on a touched link to the given
// deadline.
func constScheme(d int64) Scheme[int, *toyChan, int64] {
	return func(st *State[int, *toyChan, int64], touched []int) map[ID]int64 {
		parts := make(map[ID]int64)
		for _, l := range touched {
			for _, r := range st.ChannelsOn(l) {
				if r.Ch.part != d {
					parts[r.Ch.id] = d
				}
			}
		}
		return parts
	}
}

func TestApplyReportsChangedLinksAndIDs(t *testing.T) {
	e := newToyEngine(Config{Workers: 1})
	mk := func(links ...int) func(int, ID) *toyChan {
		return func(_ int, id ID) *toyChan {
			return &toyChan{id: id, c: 1, p: 100, links: links}
		}
	}
	schemes := []Scheme[int, *toyChan, int64]{constScheme(10)}
	if _, rej := e.Admit(1, mk(1, 2), schemes); rej != nil {
		t.Fatalf("admit: %v", rej.Result)
	}
	if _, rej := e.Admit(1, mk(3, 4), schemes); rej != nil {
		t.Fatalf("admit: %v", rej.Result)
	}
	// A repartition to the same value must report nothing as changed.
	if _, rej := e.Admit(1, mk(1, 3), schemes); rej != nil {
		t.Fatalf("admit: %v", rej.Result)
	}
	ids := e.Repartitioned()
	if len(ids) != 1 || ids[0] != 3 {
		t.Fatalf("Repartitioned = %v, want just the new channel 3", ids)
	}
}

func TestApplyPanicsOnUnknownChannel(t *testing.T) {
	e := newToyEngine(Config{Workers: 1})
	stray := []Scheme[int, *toyChan, int64]{func(*State[int, *toyChan, int64], []int) map[ID]int64 {
		return map[ID]int64{999: 10}
	}}
	defer func() {
		if recover() == nil {
			t.Error("partition for an unknown channel did not panic")
		}
	}()
	e.Admit(1, func(_ int, id ID) *toyChan {
		return &toyChan{id: id, c: 1, p: 100, links: []int{1}}
	}, stray)
}

func TestApplyPanicsOnInvalidPartition(t *testing.T) {
	e := newToyEngine(Config{Workers: 1})
	bad := []Scheme[int, *toyChan, int64]{constScheme(1)} // below C=2
	defer func() {
		if recover() == nil {
			t.Error("invalid partition did not panic")
		}
	}()
	e.Admit(1, func(_ int, id ID) *toyChan {
		return &toyChan{id: id, c: 2, p: 100, links: []int{1}}
	}, bad)
}

func TestLinkSetDedupPreservesOrder(t *testing.T) {
	e := newToyEngine(Config{Workers: 1})
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

// TestParallelSweepDeterministic drives one saturating batch through
// engines differing only in worker count: the verdict, the named link
// (lowest sorted index wins) and the LinksChecked accounting must be
// identical, sequential or parallel.
func TestParallelSweepDeterministic(t *testing.T) {
	// 64 links, each loaded with two channels; the partition leaves
	// high-numbered links infeasible (two C=2 tasks against a deadline of
	// 3 violate the demand criterion while staying individually valid),
	// so the sweep has many failures to pick the deterministic first
	// from.
	build := func(workers int) (*Engine[int, *toyChan, int64], *Rejection[int]) {
		e := newToyEngine(Config{Workers: workers})
		scheme := func(st *State[int, *toyChan, int64], _ []int) map[ID]int64 {
			parts := make(map[ID]int64)
			for _, ch := range st.Channels() {
				d := int64(10)
				if ch.links[0] >= 40 { // links 40+ get an infeasible split
					d = 3
				}
				parts[ch.id] = d
			}
			return parts
		}
		mk := func(i int, id ID) *toyChan {
			return &toyChan{id: id, c: 2, p: 100, links: []int{i % 64}}
		}
		_, rej := e.Admit(128, mk, []Scheme[int, *toyChan, int64]{scheme})
		return e, rej
	}

	e1, rej1 := build(1)
	e8, rej8 := build(8)
	if rej1 == nil || rej8 == nil {
		t.Fatal("saturating batch was not rejected")
	}
	if rej1.Link != rej8.Link {
		t.Fatalf("rejecting link differs: workers=1 → %d, workers=8 → %d", rej1.Link, rej8.Link)
	}
	if rej1.Link != 40 {
		t.Fatalf("rejecting link = %d, want lowest failing sorted index 40", rej1.Link)
	}
	if rej1.Result.String() != rej8.Result.String() {
		t.Fatalf("diagnostics differ:\n  workers=1: %v\n  workers=8: %v", rej1.Result, rej8.Result)
	}
	if e1.LinksChecked() != e8.LinksChecked() {
		t.Fatalf("LinksChecked differs: workers=1 → %d, workers=8 → %d",
			e1.LinksChecked(), e8.LinksChecked())
	}
	if got, want := e1.LinksChecked(), 41; got != want {
		t.Fatalf("LinksChecked = %d, want %d (failing index + 1)", got, want)
	}
	// Rejection left no trace on either engine.
	if e1.State().Len() != 0 || e8.State().Len() != 0 {
		t.Fatal("rejected batch left channels committed")
	}
}

// TestParallelSweepAcceptsIdentically verifies a feasible large batch is
// accepted with identical committed state for every worker count.
func TestParallelSweepAcceptsIdentically(t *testing.T) {
	stateKey := func(e *Engine[int, *toyChan, int64]) string {
		s := ""
		for _, ch := range e.State().Channels() {
			s += fmt.Sprintf("%d:%d:%v;", ch.id, ch.part, ch.links)
		}
		return s
	}
	build := func(workers int) *Engine[int, *toyChan, int64] {
		e := newToyEngine(Config{Workers: workers})
		mk := func(i int, id ID) *toyChan {
			return &toyChan{id: id, c: 1, p: 50, links: []int{i % 32, 32 + i%16}}
		}
		if _, rej := e.Admit(128, mk, []Scheme[int, *toyChan, int64]{constScheme(25)}); rej != nil {
			t.Fatalf("workers=%d: feasible batch rejected: %v", workers, rej.Result)
		}
		return e
	}
	e1, e8 := build(1), build(8)
	if stateKey(e1) != stateKey(e8) {
		t.Fatalf("committed states diverge:\n%s\nvs\n%s", stateKey(e1), stateKey(e8))
	}
	if e1.LinksChecked() != e8.LinksChecked() {
		t.Fatalf("LinksChecked differs: %d vs %d", e1.LinksChecked(), e8.LinksChecked())
	}
}

// TestSweepStopsAtSummaryFailure: once a link's summary proves it
// infeasible (U > 1), no later link in the sweep order can change the
// verdict, so the sweep neither asks their summaries nor tests them.
func TestSweepStopsAtSummaryFailure(t *testing.T) {
	e := newToyEngine(Config{Workers: 1})
	_, rej := e.Admit(24, func(i int, id ID) *toyChan {
		if i < 2 {
			return &toyChan{id: id, c: 50, p: 50, links: []int{0}} // two full-period tasks: U = 2
		}
		return &toyChan{id: id, c: 1, p: 50, links: []int{i}}
	}, []Scheme[int, *toyChan, int64]{func(st *State[int, *toyChan, int64], _ []int) map[ID]int64 {
		parts := make(map[ID]int64)
		for _, ch := range st.Channels() {
			parts[ch.id] = ch.c // D = C: a later link's busy period reaches its deadline
		}
		return parts
	}})
	if rej == nil || rej.Link != 0 || rej.Result.Verdict != edf.InfeasibleUtilization {
		t.Fatalf("rejection %+v, want link 0 over utilization", rej)
	}
	if !slices.Equal(e.sweepTest, []int32{0}) || e.LinksChecked() != 1 {
		t.Fatalf("sweep ran the full test at positions %v and counted %d checks, want only the failing first link", e.sweepTest, e.LinksChecked())
	}
}
