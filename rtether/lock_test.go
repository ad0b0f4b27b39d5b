package rtether

// Tests for the Network lock around Schedule callbacks: a callback runs
// with the lock released, so it may call back into the Network through
// every method class while other goroutines do too, and the lock is free
// again once the run returns. Run with -race (CI repeats the Lock|Reentr
// tests 20 times).

import (
	"slices"
	"testing"
	"time"
)

// lockTestNet is one backend's network with a live, started channel 1→2.
type lockTestNet struct {
	net *Network
	ch  *Channel
}

// lockTestNets builds one network per backend with nodes 1..4 attached.
func lockTestNets(t *testing.T) map[string]lockTestNet {
	t.Helper()
	star := New()
	for id := NodeID(1); id <= 4; id++ {
		star.MustAddNode(id)
	}
	top := NewTopology()
	top.AddSwitch(0)
	top.AddSwitch(1)
	top.Trunk(0, 1)
	for id := NodeID(1); id <= 4; id++ {
		if err := top.Attach(id, SwitchID(id%2)); err != nil {
			t.Fatal(err)
		}
	}
	out := map[string]lockTestNet{}
	for name, net := range map[string]*Network{"star": star, "fabric": New(WithTopology(top))} {
		ch, err := net.Establish(ChannelSpec{Src: 1, Dst: 2, C: 1, P: 100, D: 40})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := ch.Start(0); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = lockTestNet{net, ch}
	}
	return out
}

// reenter calls back into the network through every class of method: the
// shared-lock reads, and the writes (establish over the wire or the
// management plane, handle lifecycle, best-effort send).
func reenter(t *testing.T, net *Network, live *Channel, src, dst NodeID) {
	t.Helper()
	_ = net.Now()
	_ = net.AdmissionStats()
	_ = live.Metrics()
	ch, err := net.Establish(ChannelSpec{Src: src, Dst: dst, C: 1, P: 200, D: 60})
	if err != nil {
		t.Errorf("establish inside callback: %v", err)
		return
	}
	if err := ch.Start(0); err != nil {
		t.Errorf("start inside callback: %v", err)
	}
	net.SendBestEffort(src, dst, []byte("be")) // fabrics refuse it; only the lock matters here
	if err := ch.Release(); err != nil {
		t.Errorf("release inside callback: %v", err)
	}
}

// TestLockReentrantEveryMethodClass: an outer callback re-enters through
// reads and writes, runs a nested RunFor that fires a second callback
// which re-enters again, and then re-enters once more itself — the
// nested run must hand the lock back the way it found it.
func TestLockReentrantEveryMethodClass(t *testing.T) {
	for name, c := range lockTestNets(t) {
		net, live := c.net, c.ch
		t.Run(name, func(t *testing.T) {
			var innerAt, afterNested int64 = -1, -1
			net.Schedule(net.Now()+10, func() {
				reenter(t, net, live, 3, 4)
				net.Schedule(net.Now()+5, func() {
					innerAt = net.Now()
					reenter(t, net, live, 4, 3)
				})
				before := net.Now()
				net.RunFor(50)
				afterNested = net.Now() - before
				reenter(t, net, live, 3, 4)
			})

			stop := make(chan struct{})
			contender := make(chan struct{})
			go func() { // another goroutine contending for the lock throughout
				defer close(contender)
				for {
					select {
					case <-stop:
						return
					default:
						_ = net.Now()
						_ = live.Budgets()
					}
				}
			}()
			net.RunFor(300)
			close(stop)
			<-contender

			if innerAt < 0 {
				t.Error("callback scheduled from a callback never fired in the nested run")
			}
			if afterNested < 50 {
				t.Errorf("nested RunFor(50) advanced %d slots", afterNested)
			}
			if !net.mu.TryLock() {
				t.Fatal("lock still held after the run returned")
			}
			net.mu.Unlock()
			if m := live.Metrics(); m == nil || m.Delivered == 0 {
				t.Error("live channel delivered nothing across the nested runs")
			}
		})
	}
}

// TestLockReentrantDuringEstablishHandshake: the star's Establish steps
// the engine for its wire handshake, so a callback due in that window
// fires inside Establish's write-lock hold and must be able to re-enter.
func TestLockReentrantDuringEstablishHandshake(t *testing.T) {
	c := lockTestNets(t)["star"]
	net, live := c.net, c.ch
	fired := false
	net.Schedule(net.Now()+1, func() {
		fired = true
		_ = net.Now()
		_ = net.AdmissionStats()
		_ = live.Metrics()
		net.SendBestEffort(1, 2, []byte("be"))
		if err := live.Stop(); err != nil {
			t.Errorf("stop inside handshake callback: %v", err)
		}
	})
	if _, err := net.Establish(ChannelSpec{Src: 3, Dst: 4, C: 1, P: 200, D: 60}); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("callback due during the handshake did not fire inside Establish")
	}
	if !net.mu.TryLock() {
		t.Fatal("lock still held after Establish returned")
	}
	net.mu.Unlock()
}

// TestLockContendersRunWhileCallbackParked: a callback runs with the
// lock released, so while one is parked another goroutine's write, read
// and even run go through. The parked run then resumes, reaches its
// horizon, and the clock never goes back; afterwards the lock is free.
func TestLockContendersRunWhileCallbackParked(t *testing.T) {
	for name, c := range lockTestNets(t) {
		net, live := c.net, c.ch
		t.Run(name, func(t *testing.T) {
			start := net.Now()
			var clock []int64 // the clock as the callback and the contenders see it, in order
			parked, resume := make(chan struct{}), make(chan struct{})
			net.Schedule(start+10, func() {
				clock = append(clock, net.Now())
				close(parked)
				<-resume
				clock = append(clock, net.Now())
			})
			ran := make(chan struct{})
			go func() {
				defer close(ran)
				net.RunFor(100)
			}()
			<-parked

			released, read := make(chan error, 1), make(chan *ChannelMetrics, 1)
			go func() { released <- live.Release() }()
			go func() { read <- live.Metrics() }()
			for i := 0; i < 2; i++ {
				select {
				case err := <-released:
					if err != nil {
						t.Errorf("Release while a callback is parked: %v", err)
					}
				case <-read:
				case <-time.After(10 * time.Second):
					t.Fatal("another goroutine's Release or Metrics blocked on a parked callback")
				}
			}
			net.RunFor(5) // this goroutine runs the parked instant's other events and moves on
			clock = append(clock, net.Now())

			close(resume)
			<-ran
			clock = append(clock, net.Now())
			if !slices.IsSorted(clock) {
				t.Errorf("clock went back: %v", clock)
			}
			if clock[0] != start+10 || clock[len(clock)-1] != start+100 {
				t.Errorf("clock %v: callback due at %d, run horizon %d", clock, start+10, start+100)
			}
			if !net.mu.TryLock() {
				t.Fatal("lock still held after every caller returned")
			}
			net.mu.Unlock()
		})
	}
}

// TestLockReadsDoNotAllocate pins the fast path: a read acquisition is
// a plain RLock, with nothing to allocate.
func TestLockReadsDoNotAllocate(t *testing.T) {
	for name, c := range lockTestNets(t) {
		net, id := c.net, c.ch.ID()
		if avg := testing.AllocsPerRun(200, func() { _ = net.Now() }); avg != 0 {
			t.Errorf("%s: Network.Now() allocates %.1f/op, want 0", name, avg)
		}
		if avg := testing.AllocsPerRun(200, func() { _ = net.Lookup(id) }); avg != 0 {
			t.Errorf("%s: Network.Lookup() allocates %.1f/op, want 0", name, avg)
		}
	}
}

var benchSink int64

// BenchmarkNetworkRead measures the handle/network reads a daemon issues
// beside every establishment, with nothing else holding the lock.
func BenchmarkNetworkRead(b *testing.B) {
	net := New()
	net.MustAddNode(1)
	net.MustAddNode(2)
	ch, err := net.Establish(ChannelSpec{Src: 1, Dst: 2, C: 1, P: 100, D: 40})
	if err != nil {
		b.Fatal(err)
	}
	if err := ch.Start(0); err != nil {
		b.Fatal(err)
	}
	net.RunFor(500)
	b.Run("Now", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchSink += net.Now()
		}
	})
	b.Run("Budgets", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchSink += int64(len(ch.Budgets()))
		}
	})
	b.Run("Metrics", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchSink += ch.Metrics().Delivered
		}
	})
}

// BenchmarkScheduleCallback measures the data-plane benchmark's
// best-effort generator: one Schedule, and one SendBestEffort from the
// callback when it fires, per op. Callbacks are due one per slot.
func BenchmarkScheduleCallback(b *testing.B) {
	net := New()
	net.MustAddNode(1)
	net.MustAddNode(2)
	send := func() { net.SendBestEffort(1, 2, []byte("bg")) }
	b.ReportAllocs()
	for i := 0; i < b.N; {
		now, k := net.Now(), 0
		for ; k < 1000 && i < b.N; k, i = k+1, i+1 {
			net.Schedule(now+int64(k), send)
		}
		net.RunFor(int64(k))
	}
}
