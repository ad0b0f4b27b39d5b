package route

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/core"
)

// ring4 is a 4-switch ring (0-1, 1-2, 2-3, 3-0) with one node per
// switch: node i+1 on switch i.
func ring4() *Graph {
	g := NewGraph()
	for s := SwitchID(0); s < 4; s++ {
		if err := g.AddSwitch(s); err != nil {
			panic(err)
		}
	}
	for _, tr := range [][2]SwitchID{{0, 1}, {1, 2}, {2, 3}, {3, 0}} {
		if err := g.ConnectSwitches(tr[0], tr[1]); err != nil {
			panic(err)
		}
	}
	for i := 0; i < 4; i++ {
		if err := g.AttachNode(core.NodeID(i+1), SwitchID(i)); err != nil {
			panic(err)
		}
	}
	return g
}

// pathString renders a route compactly for comparisons.
func pathString(edges []Edge) string {
	s := ""
	for _, e := range edges {
		s += e.String() + " "
	}
	return s
}

// TestGraphConstructionErrors table-drives the construction hardening:
// every malformed build step must fail with its typed error, and the
// graph must be left unchanged by the rejected call.
func TestGraphConstructionErrors(t *testing.T) {
	cases := []struct {
		name string
		op   func(g *Graph) error
		want error
	}{
		{"duplicate switch", func(g *Graph) error { return g.AddSwitch(0) }, ErrDuplicate},
		{"self-loop trunk", func(g *Graph) error { return g.ConnectSwitches(1, 1) }, ErrDuplicate},
		{"duplicate trunk", func(g *Graph) error { return g.ConnectSwitches(0, 1) }, ErrDuplicate},
		{"duplicate trunk reversed", func(g *Graph) error { return g.ConnectSwitches(1, 0) }, ErrDuplicate},
		{"trunk to unknown switch", func(g *Graph) error { return g.ConnectSwitches(0, 9) }, ErrUnknownSwitch},
		{"trunk from unknown switch", func(g *Graph) error { return g.ConnectSwitches(9, 0) }, ErrUnknownSwitch},
		{"re-attach node", func(g *Graph) error { return g.AttachNode(1, 1) }, ErrDuplicate},
		{"re-attach node same switch", func(g *Graph) error { return g.AttachNode(1, 0) }, ErrDuplicate},
		{"attach to unknown switch", func(g *Graph) error { return g.AttachNode(7, 9) }, ErrUnknownSwitch},
		{"fail unknown trunk", func(g *Graph) error { _, err := g.SetLinkUp(0, 2, false); return err }, ErrUnknownLink},
		{"fail unknown switch", func(g *Graph) error { _, err := g.SetSwitchUp(9, false); return err }, ErrUnknownSwitch},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := ring4()
			before := fmt.Sprintf("%v/%v/%d", g.adj, g.home, g.Version())
			err := tc.op(g)
			if !errors.Is(err, tc.want) {
				t.Fatalf("got error %v, want %v", err, tc.want)
			}
			if after := fmt.Sprintf("%v/%v/%d", g.adj, g.home, g.Version()); after != before {
				t.Fatalf("rejected call mutated the graph:\nbefore %s\nafter  %s", before, after)
			}
		})
	}
}

// TestShortestDeterministic verifies BFS route choice is stable across
// repeated calls and picks the sorted-adjacency path among equal-length
// candidates (ring 0→2 has two 2-trunk paths; via switch 1 wins).
func TestShortestDeterministic(t *testing.T) {
	g := ring4()
	want := "n1→sw0 sw0→sw1 sw1→sw2 sw2→n3 "
	for i := 0; i < 10; i++ {
		edges, err := Shortest{}.Route(g, 1, 3)
		if err != nil {
			t.Fatalf("route: %v", err)
		}
		if got := pathString(edges); got != want {
			t.Fatalf("call %d: route %q, want %q", i, got, want)
		}
	}
}

// TestShortestAvoidsFailures walks a failure/repair cycle: downing the
// preferred trunk diverts the route, downing the alternate switch
// partitions the pair, and repairs restore each state exactly.
func TestShortestAvoidsFailures(t *testing.T) {
	g := ring4()
	route := func() (string, error) {
		edges, err := Shortest{}.Route(g, 1, 3)
		return pathString(edges), err
	}
	via1 := "n1→sw0 sw0→sw1 sw1→sw2 sw2→n3 "
	via3 := "n1→sw0 sw0→sw3 sw3→sw2 sw2→n3 "

	if got, _ := route(); got != via1 {
		t.Fatalf("healthy route %q, want %q", got, via1)
	}
	if changed, err := g.SetLinkUp(0, 1, false); err != nil || !changed {
		t.Fatalf("SetLinkUp(0,1,false) = %v, %v", changed, err)
	}
	if got, _ := route(); got != via3 {
		t.Fatalf("route after trunk 0-1 down %q, want %q", got, via3)
	}
	if changed, err := g.SetSwitchUp(3, false); err != nil || !changed {
		t.Fatalf("SetSwitchUp(3,false) = %v, %v", changed, err)
	}
	if _, err := route(); !errors.Is(err, ErrNoRoute) {
		t.Fatalf("route with both paths dead: err=%v, want ErrNoRoute", err)
	}
	if changed, err := g.SetSwitchUp(3, true); err != nil || !changed {
		t.Fatalf("repair switch 3: %v, %v", changed, err)
	}
	if got, _ := route(); got != via3 {
		t.Fatalf("route after switch repair %q, want %q", got, via3)
	}
	if changed, err := g.SetLinkUp(0, 1, true); err != nil || !changed {
		t.Fatalf("repair trunk 0-1: %v, %v", changed, err)
	}
	if got, _ := route(); got != via1 {
		t.Fatalf("fully repaired route %q, want %q", got, via1)
	}
}

// TestTreeAvoidsFailures verifies multicast trees respect link state:
// with trunk 0-1 down the tree to sinks on switches 1 and 2 must run the
// long way around the ring.
func TestTreeAvoidsFailures(t *testing.T) {
	g := ring4()
	if _, err := g.SetLinkUp(0, 1, false); err != nil {
		t.Fatal(err)
	}
	edges, parents, leaves, err := Shortest{}.Tree(g, 1, []core.NodeID{2, 3})
	if err != nil {
		t.Fatalf("tree: %v", err)
	}
	for _, e := range edges {
		if e.From == SwitchEnd(0) && e.To == SwitchEnd(1) {
			t.Fatalf("tree uses downed trunk 0-1: %v", edges)
		}
	}
	if len(leaves) != 2 || len(parents) != len(edges) {
		t.Fatalf("tree shape: %d edges, parents %v, leaves %v", len(edges), parents, leaves)
	}
	for i, p := range parents {
		if p >= i || (i == 0) != (p == -1) {
			t.Fatalf("parents not topologically ordered: %v", parents)
		}
	}
}

// TestVersionCountsOnlyRealFlips verifies no-op up/down calls do not
// advance the version counter (consumers use it to invalidate caches).
func TestVersionCountsOnlyRealFlips(t *testing.T) {
	g := ring4()
	v := g.Version()
	if changed, err := g.SetLinkUp(0, 1, true); err != nil || changed {
		t.Fatalf("no-op repair reported change: %v, %v", changed, err)
	}
	if g.Version() != v {
		t.Fatal("no-op repair bumped version")
	}
	if _, err := g.SetLinkUp(0, 1, false); err != nil {
		t.Fatal(err)
	}
	if g.Version() != v+1 {
		t.Fatalf("down flip: version %d, want %d", g.Version(), v+1)
	}
	if changed, _ := g.SetLinkUp(0, 1, false); changed {
		t.Fatal("repeated down reported change")
	}
	if g.Version() != v+1 {
		t.Fatal("repeated down bumped version")
	}
}

// TestAvailabilityQueries pins the LinkUp/SwitchUp contract, including
// the unknown-element convention (false, never a panic).
func TestAvailabilityQueries(t *testing.T) {
	g := ring4()
	if !g.LinkUp(0, 1) || !g.LinkUp(1, 0) {
		t.Fatal("healthy trunk reports down")
	}
	if g.LinkUp(0, 2) {
		t.Fatal("unknown trunk reports up")
	}
	if g.SwitchUp(9) {
		t.Fatal("unknown switch reports up")
	}
	if _, err := g.SetSwitchUp(2, false); err != nil {
		t.Fatal(err)
	}
	if g.SwitchUp(2) {
		t.Fatal("downed switch reports up")
	}
}
