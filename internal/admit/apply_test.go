package admit

import (
	"math/rand"
	"slices"
	"testing"
)

// TestReleaseZeroAllocs pins a release — Apply of one removal and no
// addition — at 0 allocs/op: the touched set, the journal, the sweep and
// the commit reuse the engine's and the state's buffers, and the link
// utilization sums subtract in machine words. The scheme repartitions
// nothing, so only the kernel counts.
func TestReleaseZeroAllocs(t *testing.T) {
	keep := toyScheme(false, func(ch *toyChan) int64 { return ch.part })
	e := newToyEngine(Config{})
	chs, rej := e.Apply(nil, 300, func(i int, id ID) *toyChan {
		return &toyChan{id: id, c: 1, p: 100, links: []int{i % 16, 16 + i%7}, part: 50}
	}, keep)
	if rej != nil {
		t.Fatalf("setup rejected: %v", rej.Result)
	}
	ids := make([]ID, len(chs))
	for i, ch := range chs {
		ids[i] = ch.id
	}
	k := 0
	if got := testing.AllocsPerRun(200, func() {
		e.Apply(ids[k:k+1], 0, nil, keep)
		k++
	}); got != 0 {
		t.Errorf("release allocates %.1f allocs/op, want 0", got)
	}
	if e.State().Len() != 300-k {
		t.Fatalf("%d channels left after %d releases of 300", e.State().Len(), k)
	}
}

// TestApplyReplaceKeepsID replaces a channel by one that reuses its ID —
// the shape of a reconfigure — on a link it shares with others. The
// committed replacement takes a new slot at the end of the order; a
// refused one leaves the old channel exactly where it was, partition and
// ID allocator included.
func TestApplyReplaceKeepsID(t *testing.T) {
	e := newToyEngine(Config{})
	scheme := constScheme(20)
	for _, links := range [][]int{{1, 2}, {1, 3}, {1, 4}} {
		if _, rej := e.Apply(nil, 1, func(_ int, id ID) *toyChan {
			return &toyChan{id: id, c: 4, p: 40, links: links}
		}, scheme); rej != nil {
			t.Fatalf("setup: %v", rej.Result)
		}
	}
	ids := func() (out []ID) {
		for _, ch := range e.State().Channels() {
			out = append(out, ch.id)
		}
		return out
	}
	replace := func(c int64) *Rejection[int] {
		_, rej := e.Apply([]ID{2}, 1, func(_ int, _ ID) *toyChan {
			return &toyChan{id: 2, c: c, p: 40, links: []int{1, 3}}
		}, scheme)
		return rej
	}

	before, next := rawState(e.State()), e.State().NextID()
	// Three tasks of C = 4 and a fourth of C = 10 on link 1 need 22 slots
	// by D = 20.
	if rej := replace(10); rej != nil {
		t.Fatalf("replacement within capacity refused: %v", rej.Result)
	}
	if got := ids(); !slices.Equal(got, []ID{1, 3, 2}) || e.State().Get(2).c != 10 {
		t.Fatalf("after replace: order %v, channel 2 C=%d; want [1 3 2] and C=10", got, e.State().Get(2).c)
	}
	if rej := replace(4); rej != nil {
		t.Fatalf("shrinking back refused: %v", rej.Result)
	}
	before, next = rawState(e.State()), e.State().NextID()
	if rej := replace(13); rej == nil || rej.Link != 1 {
		t.Fatalf("replacement over capacity: %v, want a refusal on link 1", rej)
	}
	if after := rawState(e.State()); after != before || e.State().NextID() != next {
		t.Fatalf("refused replacement left a trace:\n before %s (next %d)\n after  %s (next %d)", before, next, after, e.State().NextID())
	}
}

// TestAdmitEachWithRemovalMatchesSequential replays random churn through
// AdmitEach with a removal and through its sequential counterpart — the
// removal alone, then one Apply per request — and requires identical
// verdicts, diagnostics, IDs and committed states. A group that fits,
// removal included, costs one repartition pass.
func TestAdmitEachWithRemovalMatchesSequential(t *testing.T) {
	scheme := constScheme(8)
	rng := rand.New(rand.NewSource(21))
	merged, seq := newToyEngine(Config{}), newToyEngine(Config{})
	var live []ID
	onePass := 0
	for round := 0; round < 60; round++ {
		remove := slices.Clone(live)
		rng.Shuffle(len(remove), func(a, b int) { remove[a], remove[b] = remove[b], remove[a] })
		remove = remove[:rng.Intn(min(4, len(remove))+1)]
		mks := randomToySpecs(rng, 1+rng.Intn(8))
		mk := func(i int, id ID) *toyChan { return mks[i](id) }

		passes := merged.Repartitions()
		chs, rejs := merged.AdmitEach(remove, len(mks), mk, scheme)
		seq.Apply(remove, 0, nil, scheme)
		accepted := 0
		for i := range mks {
			sch, srej := seq.Apply(nil, 1, func(_ int, id ID) *toyChan { return mks[i](id) }, scheme)
			switch {
			case (srej == nil) != (rejs[i] == nil):
				t.Fatalf("round %d request %d: merged rejected=%v, sequential rejected=%v", round, i, rejs[i] != nil, srej != nil)
			case srej != nil:
				if rejs[i].Link != srej.Link || rejs[i].Result.String() != srej.Result.String() {
					t.Fatalf("round %d request %d: merged %v@%d, sequential %v@%d", round, i, rejs[i].Result, rejs[i].Link, srej.Result, srej.Link)
				}
			case chs[i].id != sch[0].id:
				t.Fatalf("round %d request %d: ID %d, sequential %d", round, i, chs[i].id, sch[0].id)
			default:
				accepted++
			}
		}
		if got, want := liveState(merged.State()), liveState(seq.State()); got != want {
			t.Fatalf("round %d: committed states diverge:\n merged     %s\n sequential %s", round, got, want)
		}
		if accepted == len(mks) {
			onePass++
			if got := merged.Repartitions() - passes; got != 1 {
				t.Fatalf("round %d: a group that fits with its removal ran %d passes, want 1", round, got)
			}
		}
		live = live[:0]
		for _, ch := range merged.State().Channels() {
			live = append(live, ch.id)
		}
	}
	if onePass == 0 || onePass == 60 {
		t.Fatalf("%d of 60 rounds fit whole: the workload exercises only one path", onePass)
	}
}
