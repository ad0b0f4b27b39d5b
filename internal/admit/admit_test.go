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
	e := newToyEngine(Config{})
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
	e := newToyEngine(Config{})
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
	e := newToyEngine(Config{})
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
	scheme := func(st *State[int, *toyChan, int64], _ []int) map[ID]int64 {
		parts := make(map[ID]int64)
		for _, ch := range st.Channels() {
			d := int64(10)
			if ch.links[0] >= 40 {
				d = 3
			}
			parts[ch.id] = d
		}
		return parts
	}
	_, rej := e.Admit(128, func(i int, id ID) *toyChan {
		return &toyChan{id: id, c: 2, p: 100, links: []int{i % 64}}
	}, []Scheme[int, *toyChan, int64]{scheme})
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

// TestSweepSkipsCountOnlyReachedLinks: a cache hit sorted after the link
// a sweep rejects on was never reached, so it is no answer LinksChecked
// counts and must not count as a skip either. Channel 1 crosses links 5
// and 9, and its hop-1 task ignores the partition, so repartitioning it
// leaves link 9's content (and its cached verdict) alone. The second
// admission fails on link 5, first in slack order, before link 9.
func TestSweepSkipsCountOnlyReachedLinks(t *testing.T) {
	ops := *toyOps
	ops.Task = func(ch *toyChan, hop int) edf.Task {
		if hop == 1 {
			return edf.Task{C: ch.c, P: ch.p, D: ch.p}
		}
		return edf.Task{C: ch.c, P: ch.p, D: ch.part}
	}
	e := NewEngine(&ops, Config{Feasibility: edf.Options{SkipValidation: true}})
	admit := func(d int64, links ...int) *Rejection[int] {
		_, rej := e.Admit(1, func(_ int, id ID) *toyChan {
			return &toyChan{id: id, c: 2, p: 100, links: links}
		}, []Scheme[int, *toyChan, int64]{constScheme(d)})
		return rej
	}
	if rej := admit(10, 5, 9); rej != nil {
		t.Fatalf("first channel rejected: %v", rej.Result)
	}
	checked0, skips0 := e.LinksChecked(), e.SweepSkips()
	rej := admit(3, 5)
	if rej == nil || rej.Link != 5 {
		t.Fatalf("rejection %v, want link 5", rej)
	}
	if checked, skips := e.LinksChecked()-checked0, e.SweepSkips()-skips0; checked != 1 || skips != 0 {
		t.Fatalf("rejection counted %d checks and %d cache hits, want 1 and 0", checked, skips)
	}
}
