package rtether

import (
	"errors"
	"testing"
)

// TestEstablishMulticastStar establishes a 3-sink multicast channel on
// the star, runs traffic, and checks aggregated delivery metrics.
func TestEstablishMulticastStar(t *testing.T) {
	net := New()
	defer net.Close()
	for id := NodeID(1); id <= 4; id++ {
		net.MustAddNode(id)
	}
	ch, err := net.EstablishMulticast(MulticastSpec{Src: 1, Sinks: []NodeID{2, 3, 4}, C: 1, P: 20, D: 10})
	if err != nil {
		t.Fatalf("EstablishMulticast: %v", err)
	}
	if !ch.Multicast() {
		t.Fatalf("handle does not report multicast")
	}
	if got := ch.Sinks(); len(got) != 3 || got[0] != 2 || got[1] != 3 || got[2] != 4 {
		t.Fatalf("Sinks() = %v, want [2 3 4]", got)
	}
	if spec := ch.Spec(); spec.Dst != 2 {
		t.Fatalf("Spec().Dst = %d, want first sink 2", spec.Dst)
	}
	if b := ch.Budgets(); len(b) != 2 || b[0]+b[1] != 10 {
		t.Fatalf("Budgets() = %v, want two budgets summing to 10", b)
	}
	if err := ch.Start(0); err != nil {
		t.Fatalf("Start: %v", err)
	}
	net.RunFor(400)
	m := ch.Metrics()
	if m == nil {
		t.Fatalf("no metrics after traffic")
	}
	// 20 releases in 400 slots, delivered to each of the three sinks.
	if m.Delivered < 3*15 {
		t.Fatalf("aggregated Delivered = %d, want at least 45 (per-sink fan-out)", m.Delivered)
	}
	if m.Misses != 0 {
		t.Fatalf("%d deadline misses on an admitted channel", m.Misses)
	}
	if m.Delays.Max() > ch.GuaranteedDelay() {
		t.Fatalf("observed delay %d exceeds guarantee %d", m.Delays.Max(), ch.GuaranteedDelay())
	}
	if err := ch.Release(); err != nil {
		t.Fatalf("Release: %v", err)
	}
}

// TestEstablishMulticastStarBranchAttribution saturates one sink's
// downlink and checks that the rejection names the failing branch.
func TestEstablishMulticastStarBranchAttribution(t *testing.T) {
	net := New()
	defer net.Close()
	for id := NodeID(1); id <= 4; id++ {
		net.MustAddNode(id)
	}
	// Load downlink 3 with two channels (d_down = 6 each): a third task
	// {C=3, D=6} would demand 9 slots by t=6 — infeasible.
	for src := NodeID(1); src <= 2; src++ {
		if _, err := net.Establish(ChannelSpec{Src: src, Dst: 3, C: 3, P: 10, D: 12}); err != nil {
			t.Fatalf("preload from %d: %v", src, err)
		}
	}
	spec := MulticastSpec{Src: 4, Sinks: []NodeID{2, 3}, C: 3, P: 10, D: 12}
	_, err := net.EstablishMulticast(spec)
	if err == nil {
		t.Fatalf("overload admitted")
	}
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("rejection does not wrap ErrInfeasible: %v", err)
	}
	var ae *AdmissionError
	if !errors.As(err, &ae) {
		t.Fatalf("rejection is %T, want *AdmissionError", err)
	}
	if ae.Branch != 1 || ae.Sink != 3 {
		t.Fatalf("Branch=%d Sink=%d, want branch 1 sink 3 (err: %v)", ae.Branch, ae.Sink, ae)
	}
	if ae.Dir != DirDown || ae.Node != 3 || ae.Hop != 1 {
		t.Fatalf("Dir=%v Node=%d Hop=%d, want down/3/1", ae.Dir, ae.Node, ae.Hop)
	}
	// Atomicity: the rejected tree reserved nothing — the same sinks
	// minus the saturated one still fit.
	if _, err := net.EstablishMulticast(MulticastSpec{Src: 4, Sinks: []NodeID{2}, C: 3, P: 10, D: 12}); err != nil {
		t.Fatalf("post-rejection establish failed — rejected tree leaked state: %v", err)
	}
}

// fanoutTopology is the rtether-level tree fabric used by the fabric
// multicast tests: source at sw0, sinks behind sw1 and sw2.
func fanoutTopology(t testing.TB) *Topology {
	top := NewTopology()
	for s := SwitchID(0); s <= 2; s++ {
		if err := top.AddSwitch(s); err != nil {
			t.Fatalf("AddSwitch: %v", err)
		}
	}
	if err := top.Trunk(0, 1); err != nil {
		t.Fatalf("Trunk: %v", err)
	}
	if err := top.Trunk(0, 2); err != nil {
		t.Fatalf("Trunk: %v", err)
	}
	for n, s := range map[NodeID]SwitchID{1: 0, 2: 1, 3: 1, 4: 2} {
		if err := top.Attach(n, s); err != nil {
			t.Fatalf("Attach: %v", err)
		}
	}
	return top
}

// TestEstablishMulticastFabric runs a multicast tree across switches:
// shared trunk budgeted once, per-sink delivery measured at every leaf.
func TestEstablishMulticastFabric(t *testing.T) {
	for _, hdps := range []struct {
		name string
		h    HDPS
	}{{"H-SDPS", HSDPS()}, {"H-ADPS", HADPS()}} {
		t.Run(hdps.name, func(t *testing.T) {
			net := New(WithTopology(fanoutTopology(t)), WithHDPS(hdps.h))
			defer net.Close()
			ch, err := net.EstablishMulticast(MulticastSpec{Src: 1, Sinks: []NodeID{2, 3, 4}, C: 1, P: 25, D: 15})
			if err != nil {
				t.Fatalf("EstablishMulticast: %v", err)
			}
			if err := ch.Start(0); err != nil {
				t.Fatalf("Start: %v", err)
			}
			net.RunFor(500)
			m := ch.Metrics()
			if m == nil {
				t.Fatalf("no metrics after traffic")
			}
			if m.Delivered < 3*18 {
				t.Fatalf("aggregated Delivered = %d, want at least 54 across three leaves", m.Delivered)
			}
			if m.Misses != 0 {
				t.Fatalf("%d deadline misses on an admitted tree", m.Misses)
			}
		})
	}
}

// TestEstablishMulticastFabricBranchAttribution saturates one leaf
// downlink on the fabric and checks the rejection's branch/sink and the
// whole-tree rollback.
func TestEstablishMulticastFabricBranchAttribution(t *testing.T) {
	net := New(WithTopology(fanoutTopology(t)), WithHDPS(HSDPS()))
	defer net.Close()
	// Load node 4's branch (n2→sw1→sw0→sw2→n4) to U = 6/7 per edge; the
	// multicast's extra 2/8 pushes sw0→sw2 and sw2→n4 past U = 1.
	for i := 0; i < 3; i++ {
		if _, err := net.Establish(ChannelSpec{Src: 2, Dst: 4, C: 2, P: 7, D: 28}); err != nil {
			t.Fatalf("preload %d: %v", i, err)
		}
	}
	spec := MulticastSpec{Src: 1, Sinks: []NodeID{2, 4}, C: 2, P: 8, D: 24}
	_, err := net.EstablishMulticast(spec)
	if err == nil {
		t.Fatalf("overload admitted")
	}
	var ae *AdmissionError
	if !errors.As(err, &ae) {
		t.Fatalf("rejection is %T, want *AdmissionError (%v)", err, err)
	}
	if ae.Branch != 1 || ae.Sink != 4 {
		t.Fatalf("Branch=%d Sink=%d, want branch 1 sink 4 (err: %v)", ae.Branch, ae.Sink, ae)
	}
	if ae.Hop < 0 {
		t.Fatalf("Hop=%d, want a tree edge index (err: %v)", ae.Hop, ae)
	}
	// Atomicity: the shared trunk and the feasible branch reserved
	// nothing — the tree without the saturated sink still fits.
	if _, err := net.EstablishMulticast(MulticastSpec{Src: 1, Sinks: []NodeID{2}, C: 2, P: 8, D: 24}); err != nil {
		t.Fatalf("post-rejection establish failed — rejected tree leaked state: %v", err)
	}
}

// TestEstablishMulticastValidation covers the non-feasibility error
// paths through the public API.
func TestEstablishMulticastValidation(t *testing.T) {
	net := New()
	defer net.Close()
	net.MustAddNode(1)
	net.MustAddNode(2)
	if _, err := net.EstablishMulticast(MulticastSpec{Src: 1, Sinks: []NodeID{2, 9}, C: 1, P: 10, D: 6}); err == nil {
		t.Fatalf("unknown sink admitted")
	}
	if _, err := net.EstablishMulticast(MulticastSpec{Src: 1, C: 1, P: 10, D: 6}); err == nil {
		t.Fatalf("empty sink set admitted")
	}
	net.Close()
	if _, err := net.EstablishMulticast(MulticastSpec{Src: 1, Sinks: []NodeID{2}, C: 1, P: 10, D: 6}); !errors.Is(err, ErrClosed) {
		t.Fatalf("closed network: got %v, want ErrClosed", err)
	}
}

// TestMulticastGuaranteedDelayFarthestSink pins Eq. 18.1 on trees: the
// handle's guarantee pads D with the propagation delay of the deepest
// root→leaf path, so it bounds delivery to every sink — not just to
// Sinks[0], which here sits two hops from the source while the far sink
// sits five hops away.
func TestMulticastGuaranteedDelayFarthestSink(t *testing.T) {
	n := New(WithTopology(lineTopology(t, 4)), WithPropagation(1))
	ch, err := n.EstablishMulticast(MulticastSpec{Src: 0, Sinks: []NodeID{1, 100}, C: 2, P: 100, D: 40})
	if err != nil {
		t.Fatal(err)
	}
	if got := ch.GuaranteedDelay(); got != 40+5 {
		t.Errorf("multicast GuaranteedDelay = %d, want %d (far sink: uplink, 3 trunks, downlink)", got, 40+5)
	}
	near, err := n.Establish(ChannelSpec{Src: 0, Dst: 1, C: 2, P: 100, D: 40})
	if err != nil {
		t.Fatal(err)
	}
	if got := near.GuaranteedDelay(); got != 40+2 {
		t.Errorf("unicast GuaranteedDelay = %d, want %d", got, 40+2)
	}
}
