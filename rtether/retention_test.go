package rtether

import (
	"errors"
	"testing"
)

// TestFabricHoldsNoSimStateWithoutTraffic is the daemon's case: a fabric
// network that admits and releases but never starts traffic leaves its
// simulation empty, however many channels came and went.
func TestFabricHoldsNoSimStateWithoutTraffic(t *testing.T) {
	n := New(WithTopology(lineTopology(t, 2)), WithHDPS(HADPS()))
	fb := n.be.(*fabricBackend)
	standing, err := n.Establish(ChannelSpec{Src: 1, Dst: 101, C: 1, P: 100, D: 60})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10000; i++ {
		ch, err := n.Establish(ChannelSpec{Src: NodeID(i % 6), Dst: NodeID(100 + i%6), C: 1, P: 100, D: 60})
		if err != nil {
			t.Fatalf("cycle %d: %v", i, err)
		}
		if err := ch.Release(); err != nil {
			t.Fatal(err)
		}
	}
	if fb.sim.Len() != 0 || len(fb.sim.ChannelIDs()) != 0 {
		t.Fatalf("an idle fabric's simulation holds %d channels and %d records", fb.sim.Len(), len(fb.sim.ChannelIDs()))
	}
	// The first Start installs the channel under its committed budgets.
	if err := standing.Start(0); err != nil {
		t.Fatal(err)
	}
	n.RunFor(1000)
	if m := standing.Metrics(); m == nil || m.Delivered != 10 || m.Misses != 0 {
		t.Fatalf("standing channel after its first Start: %+v", m)
	}
}

// TestRetentionWithTraffic cycles EstablishEach, Start, RunFor and
// Release next to a standing channel, on the star and on a fabric.
// Counted after every cycle: the report lists one channel per channel
// that delivered, every released one included; on the fabric the
// simulation holds only the live channel besides their metrics.
func TestRetentionWithTraffic(t *testing.T) {
	for _, tc := range []struct {
		name     string
		net      func() *Network
		src, dst func(i int) NodeID
	}{
		{"star", func() *Network { return starNet(4) },
			func(int) NodeID { return 1 }, func(i int) NodeID { return NodeID(2 + i%3) }},
		{"fabric", func() *Network { return New(WithTopology(lineTopology(t, 2)), WithHDPS(HADPS())) },
			func(i int) NodeID { return NodeID(i % 6) }, func(i int) NodeID { return NodeID(100 + i%6) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := tc.net()
			standing, err := n.Establish(ChannelSpec{Src: tc.src(0), Dst: tc.dst(0), C: 1, P: 100, D: 60})
			if err != nil {
				t.Fatal(err)
			}
			if err := standing.Start(0); err != nil {
				t.Fatal(err)
			}
			const cycles = 200
			for i := 1; i <= cycles; i++ {
				chs, errs := n.EstablishEach([]ChannelSpec{{Src: tc.src(i), Dst: tc.dst(i), C: 1, P: 100, D: 60}})
				if errs[0] != nil {
					t.Fatal(errs[0])
				}
				if err := chs[0].Start(0); err != nil {
					t.Fatal(err)
				}
				n.RunFor(200)
				if err := chs[0].Release(); err != nil {
					t.Fatal(err)
				}
				if got := len(n.Report().Channels); got != 1+i {
					t.Fatalf("cycle %d: the report lists %d channels, want %d", i, got, 1+i)
				}
				if fb, ok := n.be.(*fabricBackend); ok && (fb.sim.Len() != 1 || len(fb.sim.ChannelIDs()) != 1+i) {
					t.Fatalf("cycle %d: the simulation holds %d channels and %d records, want 1 and %d", i, fb.sim.Len(), len(fb.sim.ChannelIDs()), 1+i)
				}
			}
			if rep := n.Report(); rep.TotalMisses() != 0 {
				t.Fatalf("%d misses", rep.TotalMisses())
			}
		})
	}
}

// TestStarIDsFitTheFrameField runs a star past the wrap of its 16-bit
// channel ID field: after 65 536 establish/release cycles, channels
// admitted through Establish (the wire handshake) and EstablishEach
// (the management plane) carry IDs the frames can hold, and deliver
// every frame in time. The first cycles carry traffic, so the IDs that
// come back have measurements on record, which the new channels must
// not inherit.
func TestStarIDsFitTheFrameField(t *testing.T) {
	n := starNet(3)
	spec := ChannelSpec{Src: 1, Dst: 2, C: 1, P: 100, D: 40}
	for i := 0; i < 1<<16; i++ {
		var ch *Channel
		var err error
		if i%2 == 0 {
			ch, err = n.Establish(spec)
		} else {
			chs, errs := n.EstablishEach([]ChannelSpec{spec})
			ch, err = chs[0], errs[0]
		}
		if err != nil {
			t.Fatalf("cycle %d: %v", i, err)
		}
		if i < 3 {
			if err := ch.Start(0); err != nil {
				t.Fatal(err)
			}
			n.RunFor(300)
		}
		if err := ch.Release(); err != nil {
			t.Fatal(err)
		}
	}
	wire, err := n.Establish(spec)
	if err != nil {
		t.Fatal(err)
	}
	chs, errs := n.EstablishEach([]ChannelSpec{{Src: 1, Dst: 3, C: 1, P: 100, D: 40}})
	if errs[0] != nil {
		t.Fatal(errs[0])
	}
	for _, ch := range []*Channel{wire, chs[0]} {
		if ch.ID() > 0xffff {
			t.Fatalf("channel ID %d does not fit the 16-bit frame field", ch.ID())
		}
		if err := ch.Start(0); err != nil {
			t.Fatal(err)
		}
	}
	n.RunFor(1000)
	for _, ch := range []*Channel{wire, chs[0]} {
		if m := ch.Metrics(); m == nil || m.Delivered != 10 || m.Misses != 0 {
			t.Fatalf("channel %d past the ID wrap: %+v, want 10 frames delivered in time", ch.ID(), m)
		}
	}
}

// TestStarIDsExhausted fills a star's ID space: with all 65 535 IDs live
// the next establishment is refused with ErrIDsExhausted, on either
// path, and a release makes room again.
func TestStarIDsExhausted(t *testing.T) {
	n := starNet(2)
	specs := make([]ChannelSpec, 0xffff)
	for i := range specs {
		specs[i] = ChannelSpec{Src: 1, Dst: 2, C: 1, P: 1 << 20, D: 1 << 21}
	}
	chs, err := n.EstablishAll(specs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Establish(specs[0]); !errors.Is(err, ErrIDsExhausted) {
		t.Fatalf("Establish with every ID live: %v, want ErrIDsExhausted", err)
	}
	if _, errs := n.EstablishEach(specs[:1]); !errors.Is(errs[0], ErrIDsExhausted) {
		t.Fatalf("EstablishEach with every ID live: %v, want ErrIDsExhausted", errs[0])
	}
	if err := chs[7].Release(); err != nil {
		t.Fatal(err)
	}
	ch, err := n.Establish(specs[0])
	if err != nil || ch.ID() != chs[7].ID() {
		t.Fatalf("after a release: %v, %v; want the freed ID %d", ch, err, chs[7].ID())
	}
}
