package fabricsim

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/topo"
)

// loadLine builds a k-switch line fabric with masters on the first and
// slaves on the last switch, admits up to maxReq channels under the given
// scheme, and returns the controller.
func loadLine(t *testing.T, k int, dps topo.HDPS, maxReq int, spec core.ChannelSpec) *topo.Controller {
	t.Helper()
	tp := topo.Line(k)
	for m := 0; m < 6; m++ {
		if err := tp.AttachNode(core.NodeID(m), 0); err != nil {
			t.Fatal(err)
		}
	}
	for s := 0; s < 12; s++ {
		if err := tp.AttachNode(core.NodeID(100+s), topo.SwitchID(k-1)); err != nil {
			t.Fatal(err)
		}
	}
	ctrl := topo.NewController(tp, topo.Config{DPS: dps})
	for q := 0; q < maxReq; q++ {
		req := spec
		req.Src = core.NodeID(q % 6)
		req.Dst = core.NodeID(100 + q%12)
		_, _ = ctrl.Request(req)
	}
	return ctrl
}

func TestSingleChannelAcrossLine(t *testing.T) {
	ctrl := loadLine(t, 3, topo.HSDPS{}, 1, core.ChannelSpec{C: 2, P: 50, D: 40})
	if ctrl.State().Len() != 1 {
		t.Fatal("channel not admitted")
	}
	s, err := New(ctrl.State(), nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	s.Run(1000)
	delivered, misses, worst := s.Totals()
	if delivered < 38 { // ~20 periods x C=2
		t.Errorf("delivered %d, want ≈40", delivered)
	}
	if misses != 0 {
		t.Errorf("misses = %d", misses)
	}
	if worst > 40 {
		t.Errorf("worst delay %d > deadline 40", worst)
	}
	// 4 store-and-forward hops: physical floor is 4 slots; shaping pushes
	// toward the budget but can never beat the floor.
	ch := ctrl.State().Channels()[0]
	m := s.Channel(ch.ID)
	if m.Delays.Min() < 4 {
		t.Errorf("min delay %d below 4-hop floor", m.Delays.Min())
	}
}

// TestGuaranteeHoldsOnFabrics is the multi-hop analogue of netsim's
// headline property: every admitted channel meets its end-to-end
// deadline at full saturation, for both schemes, on fabrics of
// increasing depth, with synchronous and randomized offsets.
func TestGuaranteeHoldsOnFabrics(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, k := range []int{1, 2, 3, 4} {
		for _, dps := range []topo.HDPS{topo.HSDPS{}, topo.HADPS{}} {
			for _, randomOffsets := range []bool{false, true} {
				ctrl := loadLine(t, k, dps, 150, core.ChannelSpec{C: 3, P: 300, D: 60})
				if ctrl.State().Len() == 0 {
					t.Fatalf("k=%d %s: nothing admitted", k, dps.Name())
				}
				offsets := map[core.ChannelID]int64{}
				if randomOffsets {
					for _, ch := range ctrl.State().Channels() {
						offsets[ch.ID] = rng.Int63n(300)
					}
				}
				s, err := New(ctrl.State(), offsets, Config{})
				if err != nil {
					t.Fatal(err)
				}
				s.Run(4 * 300)
				delivered, misses, worst := s.Totals()
				if delivered == 0 {
					t.Fatalf("k=%d %s: no traffic", k, dps.Name())
				}
				if misses != 0 {
					t.Fatalf("k=%d %s offsets=%v: %d misses (worst=%d, admitted=%d)",
						k, dps.Name(), randomOffsets, misses, worst, ctrl.State().Len())
				}
				if worst > 60 {
					t.Fatalf("k=%d %s: worst delay %d > 60", k, dps.Name(), worst)
				}
			}
		}
	}
}

func TestUnshapedFabricStillMeetsDeadlines(t *testing.T) {
	// Work-conserving multi-hop EDF on an admitted set: earlier
	// deliveries, same zero-miss outcome on this workload.
	ctrl := loadLine(t, 3, topo.HADPS{}, 150, core.ChannelSpec{C: 3, P: 300, D: 60})
	shaped, err := New(ctrl.State(), nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	unshaped, err := New(ctrl.State(), nil, Config{DisableShaping: true})
	if err != nil {
		t.Fatal(err)
	}
	shaped.Run(1200)
	unshaped.Run(1200)
	_, mS, wS := shaped.Totals()
	_, mU, wU := unshaped.Totals()
	if mS != 0 || mU != 0 {
		t.Fatalf("misses: shaped=%d unshaped=%d", mS, mU)
	}
	if wU > wS {
		t.Errorf("unshaped worst %d > shaped worst %d: work conservation should not hurt the max here", wU, wS)
	}
}

func TestNewRejectsChannelsWithoutBudgets(t *testing.T) {
	st := topo.NewState()
	_ = st
	// Build a state by hand through the controller, then corrupt is not
	// possible from outside; instead verify New on an empty state works
	// and a zero-route channel cannot occur via the public path.
	s, err := New(topo.NewState(), nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	s.Run(10)
	if d, m, w := s.Totals(); d != 0 || m != 0 || w != 0 {
		t.Error("empty simulation produced traffic")
	}
}

func TestRepeatedRunExtendsHorizon(t *testing.T) {
	ctrl := loadLine(t, 2, topo.HSDPS{}, 3, core.ChannelSpec{C: 1, P: 50, D: 30})
	s, err := New(ctrl.State(), nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	s.Run(200)
	d1, _, _ := s.Totals()
	s.Run(400)
	d2, _, _ := s.Totals()
	if d2 <= d1 {
		t.Errorf("second Run delivered nothing new: %d -> %d", d1, d2)
	}
	if s.Now() != 400 {
		t.Errorf("Now = %d, want 400", s.Now())
	}
}

func TestChannelLookup(t *testing.T) {
	ctrl := loadLine(t, 1, topo.HSDPS{}, 1, core.ChannelSpec{C: 1, P: 50, D: 30})
	s, _ := New(ctrl.State(), nil, Config{})
	id := ctrl.State().Channels()[0].ID
	if s.Channel(id) == nil {
		t.Error("admitted channel not found")
	}
	if s.Channel(9999) != nil {
		t.Error("phantom channel found")
	}
}

// TestHopLateCountsARepartitionedWait is the mode-change mechanism of a
// repartition with frames in flight: a period's second frame waits at
// hop 0 while a repartition shortens that hop's budget to 1 slot, so the
// frame completes hop 0 after its new hop-local deadline. HopLate
// counts it, though the end-to-end deadline still holds.
func TestHopLateCountsARepartitionedWait(t *testing.T) {
	ctrl := loadLine(t, 1, topo.HSDPS{}, 1, core.ChannelSpec{C: 2, P: 100, D: 20})
	s, err := New(ctrl.State(), nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ch := ctrl.State().Channels()[0]
	s.Run(0) // both frames released, the first one on the wire
	// Rewrite the budgets the way the kernel installs a new split: in
	// place, with a new revision.
	ch.Hops[0], ch.Hops[1] = 1, 19
	ch.Rev++
	s.Run(50)
	m := s.Channel(ch.ID)
	if m.HopLate != 1 || m.Delivered != 2 || m.Misses != 0 {
		t.Fatalf("HopLate %d, delivered %d, misses %d; want 1, 2, 0", m.HopLate, m.Delivered, m.Misses)
	}
}
