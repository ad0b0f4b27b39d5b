package admit

import (
	"math/rand"
	"testing"
)

// randomToySpecs draws n channels over a small link universe: heavy
// enough that a good fraction of admissions fail, so bisection has
// failures to narrow down.
func randomToySpecs(rng *rand.Rand, n int) []func(id ID) *toyChan {
	out := make([]func(id ID) *toyChan, n)
	for i := 0; i < n; i++ {
		c := int64(1 + rng.Intn(4))
		p := int64(20 + rng.Intn(80))
		a := rng.Intn(6)
		b := rng.Intn(6)
		for b == a {
			b = rng.Intn(6)
		}
		out[i] = func(id ID) *toyChan {
			return &toyChan{id: id, c: c, p: p, links: []int{a, b}}
		}
	}
	return out
}

// TestAdmitEachMatchesSequential replays the same request stream through
// AdmitEach (one merged group) and through sequential Admit calls on a
// fresh engine, and requires identical verdicts, rejection diagnostics,
// committed channel IDs and committed state — the kernel half of the
// coalescing decision-equivalence contract (constScheme is monotone, so
// equivalence is exact by construction).
func TestAdmitEachMatchesSequential(t *testing.T) {
	schemes := []Scheme[int, *toyChan, int64]{constScheme(8)}
	for _, n := range []int{1, 2, 7, 64, 200} {
		rng := rand.New(rand.NewSource(int64(n)))
		mks := randomToySpecs(rng, n)

		merged := newToyEngine(Config{})
		chs, rejs := merged.AdmitEach(n, func(i int, id ID) *toyChan { return mks[i](id) }, schemes)

		seq := newToyEngine(Config{})
		accepted := 0
		for i := 0; i < n; i++ {
			sch, srej := seq.Admit(1, func(_ int, id ID) *toyChan { return mks[i](id) }, schemes)
			if (srej == nil) != (rejs[i] == nil) {
				t.Fatalf("n=%d spec %d: merged rejected=%v, sequential rejected=%v", n, i, rejs[i] != nil, srej != nil)
			}
			if srej != nil {
				if rejs[i].Link != srej.Link || rejs[i].Result.String() != srej.Result.String() {
					t.Fatalf("n=%d spec %d: diagnostics differ: merged %v@%d, sequential %v@%d",
						n, i, rejs[i].Result, rejs[i].Link, srej.Result, srej.Link)
				}
				continue
			}
			accepted++
			if chs[i].id != sch[0].id {
				t.Fatalf("n=%d spec %d: ID %d, sequential allocated %d", n, i, chs[i].id, sch[0].id)
			}
		}
		if merged.State().Len() != seq.State().Len() {
			t.Fatalf("n=%d: merged state has %d channels, sequential %d", n, merged.State().Len(), seq.State().Len())
		}
		if accepted == n && n > 1 && merged.Repartitions() != 1 {
			t.Fatalf("n=%d all accepted: merged ran %d repartition passes, want 1", n, merged.Repartitions())
		}
		if merged.Repartitions() > 2*seq.Repartitions() {
			t.Fatalf("n=%d: merged ran %d repartition passes vs sequential %d — bisection should not blow up",
				n, merged.Repartitions(), seq.Repartitions())
		}
		t.Logf("n=%d: accepted %d/%d, repartition passes merged=%d sequential=%d",
			n, accepted, n, merged.Repartitions(), seq.Repartitions())
	}
}

// TestAdmitEachRepartitionedUnion checks that Repartitioned after a
// merged decision reports every accepted channel across all
// sub-decisions (the budget re-sync set), even when bisection split the
// group.
func TestAdmitEachRepartitionedUnion(t *testing.T) {
	schemes := []Scheme[int, *toyChan, int64]{constScheme(8)}
	// Three acceptable channels and one rejected one: the third saturates
	// link 1 (two C=5/P=6 tasks push U past 1), so bisection must split
	// the group and the re-sync union must still cover all three accepts.
	mks := []func(id ID) *toyChan{
		func(id ID) *toyChan { return &toyChan{id: id, c: 1, p: 100, links: []int{0}} },
		func(id ID) *toyChan { return &toyChan{id: id, c: 5, p: 6, links: []int{1}} },
		func(id ID) *toyChan { return &toyChan{id: id, c: 5, p: 6, links: []int{1}} }, // overloads link 1
		func(id ID) *toyChan { return &toyChan{id: id, c: 1, p: 100, links: []int{2}} },
	}
	e := newToyEngine(Config{})
	chs, rejs := e.AdmitEach(len(mks), func(i int, id ID) *toyChan { return mks[i](id) }, schemes)
	wantRejected := map[int]bool{2: true}
	var wantIDs []ID
	for i := range mks {
		if wantRejected[i] {
			if rejs[i] == nil {
				t.Fatalf("spec %d unexpectedly accepted", i)
			}
			continue
		}
		if rejs[i] != nil {
			t.Fatalf("spec %d rejected: %v", i, rejs[i].Result)
		}
		wantIDs = append(wantIDs, chs[i].id)
	}
	got := e.Repartitioned()
	if len(got) != len(wantIDs) {
		t.Fatalf("Repartitioned = %v, want %v", got, wantIDs)
	}
	for i, id := range wantIDs {
		if got[i] != id {
			t.Fatalf("Repartitioned = %v, want %v", got, wantIDs)
		}
	}
}

// TestAdmitEachEmpty covers the degenerate empty group.
func TestAdmitEachEmpty(t *testing.T) {
	e := newToyEngine(Config{})
	chs, rejs := e.AdmitEach(0, nil, []Scheme[int, *toyChan, int64]{constScheme(8)})
	if len(chs) != 0 || len(rejs) != 0 {
		t.Fatalf("AdmitEach(0) = %v, %v", chs, rejs)
	}
	if ids := e.Repartitioned(); len(ids) != 0 {
		t.Fatalf("Repartitioned = %v after empty admit", ids)
	}
}
