package rtether

// Tests for the Network's concurrency contract: mutating operations
// serialize on one management/simulation plane, read-only queries run
// under a shared read lock, channel handles work from any goroutine, and
// the decisions committed under concurrency replay deterministically
// under their observed serialization. Run with -race.

import (
	"bytes"
	"errors"
	"sync"
	"testing"
)

// TestConcurrentNetworkStress hammers one star Network from many
// goroutines with the full API mix — Establish, Start, RunFor, Metrics,
// Budgets, Report, AdmissionStats, Lookup, Release — and checks the
// committed bookkeeping stays consistent. The race detector is the other
// half of the assertion.
func TestConcurrentNetworkStress(t *testing.T) {
	net := New(WithADPS())
	for id := NodeID(1); id <= 40; id++ {
		net.MustAddNode(id)
	}

	const goroutines = 8
	const iters = 25
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				src := NodeID(1 + (g*5+i)%20)
				dst := NodeID(21 + (g+i*3)%20)
				ch, err := net.Establish(ChannelSpec{Src: src, Dst: dst, C: 1, P: 200, D: 60})
				if err != nil {
					if !errors.Is(err, ErrInfeasible) {
						t.Errorf("unexpected establish error: %v", err)
					}
					_ = net.AdmissionStats()
					continue
				}
				if err := ch.Start(int64(i % 7)); err != nil {
					t.Errorf("start: %v", err)
				}
				net.RunFor(25)
				_ = ch.Budgets()
				_ = ch.Metrics()
				_ = ch.GuaranteedDelay()
				_ = net.GuaranteedDelay(ch.Spec())
				_ = net.Report()
				_ = net.LinkLoadUp(src)
				if net.Lookup(ch.ID()) != ch {
					t.Errorf("Lookup did not resolve a live handle")
				}
				if i%3 == 0 {
					if err := ch.Release(); err != nil {
						t.Errorf("release: %v", err)
					}
				} else if i%3 == 1 {
					if err := ch.Stop(); err != nil {
						t.Errorf("stop: %v", err)
					}
				}
			}
		}(g)
	}
	wg.Wait()

	st := net.AdmissionStats()
	if got, want := len(net.Channels()), st.Accepted-st.Released; got != want {
		t.Fatalf("committed channels = %d, want accepted-released = %d (%+v)", got, want, st)
	}
	var buf bytes.Buffer
	if err := net.WriteSnapshot(&buf); err != nil {
		t.Fatalf("snapshot after stress: %v", err)
	}
	// The network must still be fully functional.
	if _, err := net.Establish(ChannelSpec{Src: 39, Dst: 40, C: 1, P: 1000, D: 100}); err != nil {
		t.Fatalf("establish after stress: %v", err)
	}
}

// TestConcurrentFabricStress is the fabric flavour: routed
// establishments, hop-budget reads and releases from many goroutines.
func TestConcurrentFabricStress(t *testing.T) {
	top := NewTopology()
	for s := SwitchID(0); s < 3; s++ {
		top.AddSwitch(s)
	}
	top.Trunk(0, 1)
	top.Trunk(1, 2)
	for n := NodeID(1); n <= 12; n++ {
		if err := top.Attach(n, SwitchID((n-1)%3)); err != nil {
			t.Fatal(err)
		}
	}
	net := New(WithTopology(top), WithHDPS(HADPS()))

	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				src := NodeID(1 + (g+i)%12)
				dst := NodeID(1 + (g+i+5)%12)
				if src == dst {
					continue
				}
				ch, err := net.Establish(ChannelSpec{Src: src, Dst: dst, C: 2, P: 400, D: 120})
				if err != nil {
					if !errors.Is(err, ErrInfeasible) {
						t.Errorf("unexpected establish error: %v", err)
					}
					continue
				}
				_ = ch.Start(0)
				net.RunFor(40)
				_ = ch.Budgets()
				_ = ch.Metrics()
				_ = net.Report()
				if i%2 == 0 {
					if err := ch.Release(); err != nil {
						t.Errorf("release: %v", err)
					}
				}
			}
		}(g)
	}
	wg.Wait()

	st := net.AdmissionStats()
	if got, want := len(net.Channels()), st.Accepted-st.Released; got != want {
		t.Fatalf("committed channels = %d, want accepted-released = %d (%+v)", got, want, st)
	}
}

// TestScheduleCallbackReentrancy verifies the documented callback
// contract: a Schedule callback runs with the network lock released and
// may call back into the Network — including mutating calls — without
// deadlocking, while other goroutines contend for the same lock.
func TestScheduleCallbackReentrancy(t *testing.T) {
	net := New()
	net.MustAddNode(1)
	net.MustAddNode(2)

	done := make(chan struct{})
	var inCallback *Channel
	net.Schedule(net.Now()+10, func() {
		_ = net.Now()            // read reentry
		_ = net.AdmissionStats() // read reentry
		ch, err := net.Establish(ChannelSpec{Src: 1, Dst: 2, C: 1, P: 100, D: 30})
		if err != nil {
			t.Errorf("establish inside callback: %v", err)
			close(done)
			return
		}
		if err := ch.Start(0); err != nil { // write reentry via handle
			t.Errorf("start inside callback: %v", err)
		}
		inCallback = ch
		close(done)
	})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // a concurrent reader contending for the lock
		defer wg.Done()
		for i := 0; i < 100; i++ {
			_ = net.AdmissionStats()
			_ = net.Now()
		}
	}()
	net.RunFor(500)
	wg.Wait()
	<-done

	if inCallback == nil {
		t.Fatal("callback did not establish a channel")
	}
	if m := inCallback.Metrics(); m == nil || m.Delivered == 0 {
		t.Fatal("channel established inside a callback delivered nothing")
	}
}

// TestConcurrentEstablishDeterministicSerialization races establishments
// from many goroutines, then replays the committed decisions — in the
// serialization order the lock actually produced (establishment order) —
// on a fresh single-goroutine Network. The committed states must be
// bit-identical: same IDs, same partitions, same snapshot. This is the
// determinism contract: concurrency changes which serialization you get,
// never what a serialization commits.
func TestConcurrentEstablishDeterministicSerialization(t *testing.T) {
	concurrent := New(WithADPS())
	for id := NodeID(1); id <= 30; id++ {
		concurrent.MustAddNode(id)
	}

	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				// Saturating mix: some requests must be rejected, proving
				// rejected attempts leave no trace in the serialization.
				spec := ChannelSpec{
					Src: NodeID(1 + (g*3+i)%10),
					Dst: NodeID(11 + (g+i)%20),
					C:   3, P: 100, D: 40,
				}
				if _, err := concurrent.Establish(spec); err != nil && !errors.Is(err, ErrInfeasible) {
					t.Errorf("unexpected error: %v", err)
				}
			}
		}(g)
	}
	wg.Wait()

	st := concurrent.AdmissionStats()
	if st.Accepted == st.Requests {
		t.Fatal("workload never saturated — rejection path not exercised")
	}

	replay := New(WithADPS())
	for id := NodeID(1); id <= 30; id++ {
		replay.MustAddNode(id)
	}
	for _, id := range concurrent.Channels() {
		ch := concurrent.Lookup(id)
		if ch == nil {
			t.Fatalf("no handle for committed channel %d", id)
		}
		rch, err := replay.Establish(ch.Spec())
		if err != nil {
			t.Fatalf("replay rejected committed channel %d (%v): %v", id, ch.Spec(), err)
		}
		if rch.ID() != id {
			t.Fatalf("replay allocated ID %d where the concurrent run committed %d", rch.ID(), id)
		}
	}

	var got, want bytes.Buffer
	if err := concurrent.WriteSnapshot(&got); err != nil {
		t.Fatal(err)
	}
	if err := replay.WriteSnapshot(&want); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Fatalf("concurrent commit state diverges from its serialized replay:\n%s\nvs\n%s",
			got.String(), want.String())
	}
}
