package rtether

import (
	"errors"
	"testing"
)

// testFabricNet builds a small 2-switch fabric network.
func testFabricNet(t *testing.T) *Network {
	t.Helper()
	top := NewTopology()
	if err := top.AddSwitch(0); err != nil {
		t.Fatal(err)
	}
	if err := top.AddSwitch(1); err != nil {
		t.Fatal(err)
	}
	if err := top.Trunk(0, 1); err != nil {
		t.Fatal(err)
	}
	for n := NodeID(1); n <= 4; n++ {
		if err := top.Attach(n, SwitchID((n-1)%2)); err != nil {
			t.Fatal(err)
		}
	}
	return New(WithTopology(top))
}

// TestCloseStar pins the Close contract on a star network: traffic
// stops, channels release, mutators return ErrClosed, reads keep
// working, and Close is idempotent.
func TestCloseStar(t *testing.T) {
	net := New(WithADPS())
	net.MustAddNode(1)
	net.MustAddNode(2)
	ch, err := net.Establish(ChannelSpec{Src: 1, Dst: 2, C: 1, P: 10, D: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := ch.Start(0); err != nil {
		t.Fatal(err)
	}
	net.RunFor(100)
	before := ch.Metrics()
	if before == nil || before.Delivered == 0 {
		t.Fatalf("channel delivered nothing before close: %+v", before)
	}

	if err := net.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := net.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}

	if _, err := net.Establish(ChannelSpec{Src: 1, Dst: 2, C: 1, P: 10, D: 8}); !errors.Is(err, ErrClosed) {
		t.Errorf("Establish after Close = %v, want ErrClosed", err)
	}
	if _, err := net.EstablishAll([]ChannelSpec{{Src: 1, Dst: 2, C: 1, P: 10, D: 8}}); !errors.Is(err, ErrClosed) {
		t.Errorf("EstablishAll after Close = %v, want ErrClosed", err)
	}
	if _, errs := net.EstablishEach([]ChannelSpec{{Src: 1, Dst: 2, C: 1, P: 10, D: 8}}); !errors.Is(errs[0], ErrClosed) {
		t.Errorf("EstablishEach after Close = %v, want ErrClosed", errs[0])
	}
	if err := net.AddNode(9); !errors.Is(err, ErrClosed) {
		t.Errorf("AddNode after Close = %v, want ErrClosed", err)
	}
	if err := ch.Start(0); !errors.Is(err, ErrClosed) {
		t.Errorf("Start after Close = %v, want ErrClosed", err)
	}
	if err := ch.Release(); !errors.Is(err, ErrClosed) {
		t.Errorf("Release after Close = %v, want ErrClosed", err)
	}
	if net.SendBestEffort(1, 2, []byte("x")) {
		t.Error("SendBestEffort succeeded after Close")
	}
	if net.Lookup(ch.ID()) != nil {
		t.Error("Lookup returned a handle for a closed channel")
	}
	if got := len(net.Channels()); got != 0 {
		t.Errorf("%d channels still established after Close", got)
	}

	// The clock must not advance and callbacks must not run.
	now := net.Now()
	ran := false
	net.Schedule(now+10, func() { ran = true })
	net.RunFor(100)
	if net.Now() != now {
		t.Errorf("clock advanced after Close: %d → %d", now, net.Now())
	}
	if ran {
		t.Error("Schedule callback ran after Close")
	}

	// Reads survive: the released channel's measurements are retained.
	st := net.AdmissionStats()
	if st.Released != 1 {
		t.Errorf("Released = %d after Close, want 1", st.Released)
	}
	rep := net.Report()
	if rep == nil || rep.Channels[ch.ID()] == nil {
		t.Error("Report lost the released channel's measurements after Close")
	}
	if m := ch.Metrics(); m == nil || m.Delivered != before.Delivered {
		t.Errorf("Metrics after Close = %+v, want delivered %d", m, before.Delivered)
	}
}

// TestCloseFabric pins the same contract on a routed fabric.
func TestCloseFabric(t *testing.T) {
	net := testFabricNet(t)
	ch, err := net.Establish(ChannelSpec{Src: 1, Dst: 2, C: 1, P: 10, D: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := ch.Start(0); err != nil {
		t.Fatal(err)
	}
	net.RunFor(50)

	if err := net.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := net.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := net.Establish(ChannelSpec{Src: 1, Dst: 2, C: 1, P: 10, D: 8}); !errors.Is(err, ErrClosed) {
		t.Errorf("Establish after Close = %v, want ErrClosed", err)
	}
	if err := ch.Stop(); !errors.Is(err, ErrClosed) {
		t.Errorf("Stop after Close = %v, want ErrClosed", err)
	}
	if err := ch.Teardown(); !errors.Is(err, ErrClosed) {
		t.Errorf("Teardown after Close = %v, want ErrClosed", err)
	}
	if got := len(net.Channels()); got != 0 {
		t.Errorf("%d channels still established after Close", got)
	}
	// Fabric reads survive too (released channels keep measurements).
	if rep := net.Report(); rep == nil || rep.Channels[ch.ID()] == nil {
		t.Error("fabric Report lost the released channel's measurements after Close")
	}
}

// TestCloseConcurrent closes the network while other goroutines mutate
// and read it; run under -race this pins the lock discipline.
func TestCloseConcurrent(t *testing.T) {
	net := New()
	net.MustAddNode(1)
	net.MustAddNode(2)
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 50; i++ {
				ch, err := net.Establish(ChannelSpec{Src: 1, Dst: 2, C: 1, P: 100, D: 40})
				if err != nil {
					if !errors.Is(err, ErrClosed) && !errors.Is(err, ErrInfeasible) {
						t.Errorf("Establish: %v", err)
					}
					continue
				}
				_ = net.AdmissionStats()
				_ = ch.Release()
			}
		}()
	}
	_ = net.Close()
	for g := 0; g < 4; g++ {
		<-done
	}
	if got := len(net.Channels()); got != 0 {
		t.Errorf("%d channels left after concurrent Close", got)
	}
}

// TestScheduleCallbackAfterCloseDoesNotRun: Schedule is a no-op after
// Close, and that covers callbacks registered before it — one due later
// in the very run during which Close happened does not fire.
func TestScheduleCallbackAfterCloseDoesNotRun(t *testing.T) {
	star := New()
	star.MustAddNode(1)
	star.MustAddNode(2)
	for name, net := range map[string]*Network{"star": star, "fabric": testFabricNet(t)} {
		t.Run(name, func(t *testing.T) {
			ran := false
			net.Schedule(net.Now()+10, func() { net.Close() })
			net.Schedule(net.Now()+20, func() { ran = true })
			net.RunFor(100)
			if ran {
				t.Error("a callback due after Close ran")
			}
		})
	}
}
