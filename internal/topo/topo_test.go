package topo

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/edf"
)

func TestTopologyConstruction(t *testing.T) {
	tp := NewTopology()
	if err := tp.AddSwitch(0); err != nil {
		t.Fatal(err)
	}
	if err := tp.AddSwitch(0); !errors.Is(err, ErrDuplicate) {
		t.Errorf("duplicate switch: %v", err)
	}
	if err := tp.ConnectSwitches(0, 9); !errors.Is(err, ErrUnknownSwitch) {
		t.Errorf("unknown trunk end: %v", err)
	}
	if err := tp.ConnectSwitches(0, 0); !errors.Is(err, ErrDuplicate) {
		t.Errorf("self trunk: %v", err)
	}
	if err := tp.AddSwitch(1); err != nil {
		t.Fatal(err)
	}
	if err := tp.ConnectSwitches(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := tp.ConnectSwitches(1, 0); !errors.Is(err, ErrDuplicate) {
		t.Errorf("duplicate trunk: %v", err)
	}
	if err := tp.AttachNode(5, 0); err != nil {
		t.Fatal(err)
	}
	if err := tp.AttachNode(5, 1); !errors.Is(err, ErrDuplicate) {
		t.Errorf("duplicate node: %v", err)
	}
	if err := tp.AttachNode(6, 7); !errors.Is(err, ErrUnknownSwitch) {
		t.Errorf("attach to unknown switch: %v", err)
	}
	if home, ok := tp.Home(5); !ok || home != 0 {
		t.Errorf("Home(5) = %d,%v", home, ok)
	}
}

func TestRouteSameSwitch(t *testing.T) {
	tp := Line(1)
	tp.AttachNode(1, 0)
	tp.AttachNode(2, 0)
	route, err := tp.Route(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Two hops: n1→sw0, sw0→n2 — the star case.
	if len(route) != 2 {
		t.Fatalf("route = %v, want 2 hops", route)
	}
	if route[0] != (Edge{From: NodeEnd(1), To: SwitchEnd(0)}) || route[1] != (Edge{From: SwitchEnd(0), To: NodeEnd(2)}) {
		t.Errorf("route = %v", route)
	}
}

func TestRouteAcrossLine(t *testing.T) {
	tp := Line(4)
	tp.AttachNode(1, 0)
	tp.AttachNode(2, 3)
	route, err := tp.Route(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	// n1→sw0→sw1→sw2→sw3→n2: 5 hops.
	if len(route) != 5 {
		t.Fatalf("route = %v, want 5 hops", route)
	}
	if route[2] != (Edge{From: SwitchEnd(1), To: SwitchEnd(2)}) {
		t.Errorf("middle hop = %v", route[2])
	}
}

func TestRouteErrors(t *testing.T) {
	tp := Line(2)
	tp.AttachNode(1, 0)
	if _, err := tp.Route(1, 1); err == nil {
		t.Error("self route accepted")
	}
	if _, err := tp.Route(1, 9); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("unknown dst: %v", err)
	}
	// Disconnected fabric.
	tp2 := NewTopology()
	tp2.AddSwitch(0)
	tp2.AddSwitch(1)
	tp2.AttachNode(1, 0)
	tp2.AttachNode(2, 1)
	if _, err := tp2.Route(1, 2); !errors.Is(err, ErrNoRoute) {
		t.Errorf("disconnected: %v", err)
	}
}

func TestRouteShortestAndDeterministic(t *testing.T) {
	// Diamond: 0-1-3 and 0-2-3; BFS with sorted adjacency must always
	// pick via switch 1.
	tp := NewTopology()
	for i := 0; i < 4; i++ {
		tp.AddSwitch(SwitchID(i))
	}
	tp.ConnectSwitches(0, 1)
	tp.ConnectSwitches(0, 2)
	tp.ConnectSwitches(1, 3)
	tp.ConnectSwitches(2, 3)
	tp.AttachNode(1, 0)
	tp.AttachNode(2, 3)
	for trial := 0; trial < 5; trial++ {
		route, err := tp.Route(1, 2)
		if err != nil {
			t.Fatal(err)
		}
		if len(route) != 4 {
			t.Fatalf("route length %d, want 4", len(route))
		}
		if route[1] != (Edge{From: SwitchEnd(0), To: SwitchEnd(1)}) {
			t.Fatalf("non-deterministic or non-sorted route: %v", route)
		}
	}
}

func TestSplitDeadlineProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 2000; trial++ {
		h := rng.Intn(5) + 1
		c := int64(rng.Intn(5) + 1)
		d := int64(h)*c + int64(rng.Intn(60))
		weights := make([]int64, h)
		for i := range weights {
			weights[i] = int64(rng.Intn(10)) // zeros allowed
		}
		out := make([]int64, h)
		splitDeadline(out, d, c, weights)
		var sum int64
		for _, hop := range out {
			if hop < c {
				t.Fatalf("hop %d below C=%d (d=%d, w=%v → %v)", hop, c, d, weights, out)
			}
			sum += hop
		}
		if sum != d {
			t.Fatalf("sum %d != D=%d (w=%v → %v)", sum, d, weights, out)
		}
	}
}

func TestHSDPSReducesToSDPSOnStar(t *testing.T) {
	tp := Line(1)
	tp.AttachNode(1, 0)
	tp.AttachNode(2, 0)
	c := NewController(tp, Config{DPS: HSDPS{}})
	ch, err := c.Request(core.ChannelSpec{Src: 1, Dst: 2, C: 3, P: 100, D: 40})
	if err != nil {
		t.Fatal(err)
	}
	if ch.Hops[0] != 20 || ch.Hops[1] != 20 {
		t.Errorf("H-SDPS on star = %v, want [20 20]", ch.Hops)
	}
}

func TestFabricAdmissionStarMatchesCore(t *testing.T) {
	// On a single-switch fabric the multi-hop controller must accept the
	// same channel count as the star controller: 6 per master under
	// H-SDPS for the paper workload.
	tp := Line(1)
	for n := 1; n <= 10; n++ {
		tp.AttachNode(core.NodeID(n), 0)
	}
	c := NewController(tp, Config{DPS: HSDPS{}})
	accepted := 0
	for i := 0; i < 10; i++ {
		dst := core.NodeID(2 + i%9)
		if dst == 1 {
			dst = 10
		}
		if _, err := c.Request(core.ChannelSpec{Src: 1, Dst: dst, C: 3, P: 100, D: 40}); err == nil {
			accepted++
		}
	}
	if accepted != 6 {
		t.Errorf("fabric star accepted %d, want 6 (parity with core SDPS)", accepted)
	}
}

func TestFabricDeadlineTooShortForRoute(t *testing.T) {
	tp := Line(3)
	tp.AttachNode(1, 0)
	tp.AttachNode(2, 2)
	c := NewController(tp, Config{})
	// 4 hops * C=3 = 12 > D=11.
	_, err := c.Request(core.ChannelSpec{Src: 1, Dst: 2, C: 3, P: 100, D: 11})
	if !errors.Is(err, ErrDeadlineTooShortForRoute) {
		t.Errorf("err = %v, want ErrDeadlineTooShortForRoute", err)
	}
	// 12 exactly fits the floor.
	if _, err := c.Request(core.ChannelSpec{Src: 1, Dst: 2, C: 3, P: 100, D: 12}); err != nil {
		t.Errorf("floor deadline rejected: %v", err)
	}
}

func TestHADPSRelievesTrunkBottleneck(t *testing.T) {
	// Two switches; all traffic crosses the single trunk sw0→sw1. The
	// trunk is the bottleneck: H-ADPS should give it the lion's share of
	// each deadline and admit more channels than H-SDPS.
	build := func() *Topology {
		tp := Line(2)
		for m := 0; m < 6; m++ {
			tp.AttachNode(core.NodeID(m), 0)
		}
		for s := 0; s < 6; s++ {
			tp.AttachNode(core.NodeID(100+s), 1)
		}
		return tp
	}
	count := func(dps HDPS) int {
		c := NewController(build(), Config{DPS: dps})
		accepted := 0
		for k := 0; k < 120; k++ {
			spec := core.ChannelSpec{
				Src: core.NodeID(k % 6), Dst: core.NodeID(100 + k%6),
				C: 3, P: 300, D: 60,
			}
			if _, err := c.Request(spec); err == nil {
				accepted++
			}
		}
		return accepted
	}
	sdps := count(HSDPS{})
	adps := count(HADPS{})
	if adps <= sdps {
		t.Errorf("H-ADPS accepted %d <= H-SDPS %d; load-weighting should relieve the trunk", adps, sdps)
	}
}

// TestFabricCommittedStateAlwaysFeasible is the safety property in the
// multi-switch setting.
func TestFabricCommittedStateAlwaysFeasible(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	tp := Line(3)
	for n := 0; n < 4; n++ {
		tp.AttachNode(core.NodeID(n), 0)
		tp.AttachNode(core.NodeID(100+n), 1)
		tp.AttachNode(core.NodeID(200+n), 2)
	}
	all := []core.NodeID{0, 1, 2, 3, 100, 101, 102, 103, 200, 201, 202, 203}
	for _, dps := range []HDPS{HSDPS{}, HADPS{}} {
		c := NewController(tp, Config{DPS: dps})
		var live []core.ChannelID
		for step := 0; step < 250; step++ {
			if len(live) > 0 && rng.Intn(4) == 0 {
				i := rng.Intn(len(live))
				if err := c.Release(live[i]); err != nil {
					t.Fatal(err)
				}
				live = append(live[:i], live[i+1:]...)
			} else {
				src := all[rng.Intn(len(all))]
				dst := all[rng.Intn(len(all))]
				if src == dst {
					continue
				}
				cc := int64(rng.Intn(3) + 1)
				spec := core.ChannelSpec{
					Src: src, Dst: dst, C: cc,
					P: int64(rng.Intn(200) + 100),
					D: 5*cc + int64(rng.Intn(80)),
				}
				if ch, err := c.Request(spec); err == nil {
					live = append(live, ch.ID)
				}
			}
			for _, e := range c.State().Edges() {
				if res := edf.TestDefault(c.State().TasksOn(e)); !res.OK() {
					t.Fatalf("%s step %d: committed state infeasible on %v: %v", dps.Name(), step, e, res)
				}
			}
		}
		if c.Stats().Accepted == 0 {
			t.Fatalf("%s accepted nothing in the fuzz", dps.Name())
		}
	}
}

func TestEndpointAndEdgeStrings(t *testing.T) {
	e := Edge{From: NodeEnd(3), To: SwitchEnd(1)}
	if e.String() != "n3→sw1" {
		t.Errorf("Edge.String() = %q", e.String())
	}
}

func TestReleaseUnknown(t *testing.T) {
	c := NewController(Line(1), Config{})
	if err := c.Release(7); err == nil {
		t.Error("release of unknown channel accepted")
	}
}
