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

// moveAll marks every link moved in the running decision, so the next
// sweep runs the full EDF analysis on every link instead of skipping it.
func moveAll(e *Engine[int, *toyChan, int64]) {
	for i := range e.state.moved {
		e.state.moved[i] = e.state.txn
	}
}

// moveNone starts a decision that has moved no link yet, so the next
// sweep skips every link.
func moveNone(e *Engine[int, *toyChan, int64]) {
	e.state.begin()
	e.state.end()
}

// TestVerifySweepZeroAllocs pins the steady-state sequential verify
// sweep at 0 allocs/op: with the engine-owned scratch arena, the reused
// sweep buffers and the live task table, re-verifying every loaded link
// must not touch the heap. Every link is marked moved before every
// sweep, and every link's busy period reaches its first deadline, so
// every link runs the full EDF analysis with its demand walk rather than
// a skip or a summary answer.
func TestVerifySweepZeroAllocs(t *testing.T) {
	e := newToyEngine(Config{})
	changed := loadVerifyState(t, e, 10)

	e.verify(changed) // warm the sweep buffers
	if avg := testing.AllocsPerRun(100, func() {
		moveAll(e)
		before := e.sweepSkips
		if rej := e.verify(changed); rej != nil {
			t.Fatalf("sweep rejected: %v", rej.Result)
		}
		if e.sweepSkips != before || len(e.sweepTest) != len(changed) {
			t.Fatalf("sweep answered %d skips and %d summaries, want the full test on all %d links",
				e.sweepSkips-before, len(changed)-len(e.sweepTest), len(changed))
		}
	}); avg != 0 {
		t.Errorf("steady-state verify sweep allocates %.1f allocs/op, want 0", avg)
	}
}

// TestVerifySweepAllSkipsZeroAllocs pins the all-skips path too: a sweep
// of links the decision did not move must also be allocation-free.
func TestVerifySweepAllSkipsZeroAllocs(t *testing.T) {
	e := newToyEngine(Config{})
	changed := loadVerifyState(t, e, 10)

	moveNone(e)
	e.verify(changed) // warm the sweep buffers
	if avg := testing.AllocsPerRun(100, func() {
		if rej := e.verify(changed); rej != nil {
			t.Fatalf("sweep rejected: %v", rej.Result)
		}
	}); avg != 0 {
		t.Errorf("all-skips verify sweep allocates %.1f allocs/op, want 0", avg)
	}
}

// TestSweepSkipsUnmovedLinks proves the skip rule at kernel level: a
// sweep in a decision that moved nothing is pure skips, and a partition
// change on one channel moves exactly that channel's links.
func TestSweepSkipsUnmovedLinks(t *testing.T) {
	e := newToyEngine(Config{})
	changed := loadVerifyState(t, e, 10)

	moveNone(e)
	before := e.sweepSkips
	e.verify(changed)
	if skips := e.sweepSkips - before; skips != len(changed) {
		t.Fatalf("sweep of unmoved links: %d skips, want %d", skips, len(changed))
	}

	// Change one channel's partition: its links (and only its links) must
	// be re-analyzed on the next sweep.
	victim := e.state.Channels()[0]
	e.state.SetPart(victim, 39)
	before = e.sweepSkips
	e.verify(changed)
	if skips := e.sweepSkips - before; skips != len(changed)-len(victim.links) {
		t.Fatalf("after one-channel change: %d skips, want %d", skips, len(changed)-len(victim.links))
	}
}

// BenchmarkVerifySweep measures the steady-state sequential sweep over
// links the decision did not move (skipped) and over links it moved
// (tested: the full EDF analysis on every link).
func BenchmarkVerifySweep(b *testing.B) {
	for _, mode := range []struct {
		name string
		move bool
	}{{"skipped", false}, {"tested", true}} {
		b.Run(mode.name, func(b *testing.B) {
			e := newToyEngine(Config{})
			changed := loadVerifyState(b, e, 10)
			moveNone(e)
			e.verify(changed)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if mode.move {
					moveAll(e)
				}
				e.verify(changed)
			}
		})
	}
}
