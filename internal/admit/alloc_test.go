package admit

import (
	"testing"
)

// loadVerifyState fills an engine with four channels of capacity c per
// link, each with D = 40 < P, spread over several links, and returns the
// changed set covering every loaded link. With c = 10 each link's busy
// period (4c) reaches its first deadline, so the demand walk runs; with a
// smaller c the link's summary decides it without the walk.
func loadVerifyState(t testing.TB, e *Engine[int, *toyChan, int64], c int64) []int32 {
	t.Helper()
	scheme := constScheme(40)
	for i := 0; i < 64; i++ {
		a, b := i%16, 16+(i%16)
		_, rej := e.Apply(nil, 1, func(_ int, id ID) *toyChan {
			return &toyChan{id: id, c: c, p: 400, links: []int{a, b}}
		}, scheme)
		if rej != nil {
			t.Fatalf("setup admit %d rejected: %v", i, rej.Result)
		}
	}
	var changed []int32
	for _, l := range e.state.Links() {
		changed = append(changed, e.state.index[l])
	}
	return changed
}

// forgetVerdicts empties the verdict cache, so the next sweep runs the
// full EDF analysis on every link instead of answering from the cache.
func forgetVerdicts(e *Engine[int, *toyChan, int64]) { clear(e.feasGen) }

// TestVerifySweepZeroAllocs pins the steady-state sequential verify
// sweep at 0 allocs/op: with the engine-owned scratch arena, the reused
// sweep buffers and the live task table, re-verifying every loaded link
// must not touch the heap. The verdict cache is emptied before every
// sweep, and every link's busy period reaches its first deadline, so
// every link runs the full EDF analysis with its demand walk rather than
// a skip or a summary answer.
func TestVerifySweepZeroAllocs(t *testing.T) {
	e := newToyEngine(Config{})
	changed := loadVerifyState(t, e, 10)

	e.verify(changed) // warm the sweep buffers
	if avg := testing.AllocsPerRun(100, func() {
		forgetVerdicts(e)
		before := e.sweepSkips
		if rej := e.verify(changed); rej != nil {
			t.Fatalf("sweep rejected: %v", rej.Result)
		}
		if e.sweepSkips != before || len(e.sweepTest) != len(changed) {
			t.Fatalf("sweep answered %d cache hits and %d summaries, want the full test on all %d links",
				e.sweepSkips-before, len(changed)-len(e.sweepTest), len(changed))
		}
	}); avg != 0 {
		t.Errorf("steady-state verify sweep allocates %.1f allocs/op, want 0", avg)
	}
}

// TestVerifySweepCachedZeroAllocs pins the all-hits cache path too: a
// sweep where every link's verdict comes from the generation cache must
// also be allocation-free.
func TestVerifySweepCachedZeroAllocs(t *testing.T) {
	e := newToyEngine(Config{})
	changed := loadVerifyState(t, e, 10)

	e.verify(changed) // records feasGen for every link
	if avg := testing.AllocsPerRun(100, func() {
		if rej := e.verify(changed); rej != nil {
			t.Fatalf("sweep rejected: %v", rej.Result)
		}
	}); avg != 0 {
		t.Errorf("cached verify sweep allocates %.1f allocs/op, want 0", avg)
	}
}

// TestSweepCacheSkipsUnchangedLinks proves the cache semantics at kernel
// level: re-verifying an unchanged state is pure cache hits, and a
// content change on one link invalidates exactly that link.
func TestSweepCacheSkipsUnchangedLinks(t *testing.T) {
	e := newToyEngine(Config{})
	changed := loadVerifyState(t, e, 10)

	e.verify(changed)
	before := e.sweepSkips
	e.verify(changed)
	if hits := e.sweepSkips - before; hits != len(changed) {
		t.Fatalf("unchanged re-sweep: %d cache hits, want %d", hits, len(changed))
	}

	// Mutate one channel's partition: its links (and only its links) must
	// be re-analyzed on the next sweep.
	var victim *toyChan
	for _, ch := range e.state.Channels() {
		victim = ch
		break
	}
	e.state.SetPart(victim, 39)
	before = e.sweepSkips
	e.verify(changed)
	if hits := e.sweepSkips - before; hits != len(changed)-len(victim.links) {
		t.Fatalf("after one-channel change: %d hits, want %d", hits, len(changed)-len(victim.links))
	}
}

// BenchmarkVerifySweep measures the steady-state sweep with and without
// the verdict cache (sequential).
func BenchmarkVerifySweep(b *testing.B) {
	for _, mode := range []struct {
		name    string
		noCache bool
	}{{"cached", false}, {"uncached", true}} {
		b.Run(mode.name, func(b *testing.B) {
			e := newToyEngine(Config{})
			changed := loadVerifyState(b, e, 10)
			e.verify(changed)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if mode.noCache {
					forgetVerdicts(e)
				}
				e.verify(changed)
			}
		})
	}
}
