package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/topo"
	"repro/rtether"
)

// layout is one physical topology plus its partitioning scheme, in the
// one form every consumer can be built from: the daemon's scenario
// document, an in-process rtether.Network, and the bare core/topo
// controllers the layer ledger replays on.
type layout struct {
	Name     string
	DPS      string // "adps" | "sdps"; maps to H-ADPS / H-SDPS on fabrics
	Switches []uint16
	Trunks   [][2]uint16
	Attach   []scenario.AttachDef
}

// star reports whether the layout is the paper's single-switch network.
func (l layout) star() bool { return len(l.Switches) <= 1 }

// nodes lists the attached end-nodes in attachment order.
func (l layout) nodes() []core.NodeID {
	out := make([]core.NodeID, len(l.Attach))
	for i, a := range l.Attach {
		out[i] = core.NodeID(a.Node)
	}
	return out
}

// collapsed returns the same end-nodes homed on one switch: the star the
// core controller and netsim replay a fabric workload's specs on.
func (l layout) collapsed() layout {
	out := layout{Name: l.Name + "/star", DPS: l.DPS, Switches: []uint16{0}}
	for _, a := range l.Attach {
		out.Attach = append(out.Attach, scenario.AttachDef{Node: a.Node, Switch: 0})
	}
	return out
}

// scenario renders the layout as the document rtetherd -scenario loads.
func (l layout) scenario() *scenario.Scenario {
	return &scenario.Scenario{
		Name:  l.Name,
		DPS:   l.DPS,
		Slots: 1,
		Topology: &scenario.TopologyDef{
			Switches:    l.Switches,
			Trunks:      l.Trunks,
			Attachments: l.Attach,
		},
	}
}

// coreDPS returns the star partitioning scheme.
func (l layout) coreDPS() core.DPS {
	if l.DPS == "adps" {
		return core.ADPS{}
	}
	return core.SDPS{}
}

// hdps returns the hop-general partitioning scheme.
func (l layout) hdps() topo.HDPS {
	if l.DPS == "adps" {
		return topo.HADPS{}
	}
	return topo.HSDPS{}
}

// network builds a fresh in-process rtether.Network on the layout, the
// way rtetherd builds the one it hosts.
func (l layout) network(opts ...rtether.Option) *rtether.Network {
	net, err := l.scenario().BuildNetwork(0, opts...)
	must(err)
	return net
}

// topology builds the bare routing graph the topo controller, the
// router probes and fabricsim run on (valid for a single switch too).
func (l layout) topology() *topo.Topology {
	t := topo.NewTopology()
	for _, s := range l.Switches {
		must(t.AddSwitch(topo.SwitchID(s)))
	}
	for _, tr := range l.Trunks {
		must(t.ConnectSwitches(topo.SwitchID(tr[0]), topo.SwitchID(tr[1])))
	}
	for _, a := range l.Attach {
		must(t.AttachNode(core.NodeID(a.Node), topo.SwitchID(a.Switch)))
	}
	return t
}

// must panics on a layout-construction error: layouts are literals in
// this package, so a failure is a bug here, not an input condition.
func must(err error) {
	if err != nil {
		panic(fmt.Sprintf("bench: building layout: %v", err))
	}
}

// starLayout is a single switch with the given end-nodes.
func starLayout(name, dps string, nodes []uint16) layout {
	l := layout{Name: name, DPS: dps, Switches: []uint16{0}}
	for _, n := range nodes {
		l.Attach = append(l.Attach, scenario.AttachDef{Node: n, Switch: 0})
	}
	return l
}

// West and east end-node ID bases of the fabric layouts: west nodes are
// westBase+1.., east nodes eastBase+1...
const (
	westBase = 0
	eastBase = 1000
)

// fabricLayout is topo.Line(4) with perSide
// west nodes alternating over switches 0,1 and perSide east nodes over
// switches 2,3 — the shape of the repository's admission-scale fabric.
// An east-bound channel (west source, east sink) and a west-bound one
// share no directed link, which is what makes the two fabric callers
// link-disjoint.
func fabricLayout(name, dps string, perSide int) layout {
	l := layout{
		Name: name, DPS: dps,
		Switches: []uint16{0, 1, 2, 3},
		Trunks:   [][2]uint16{{0, 1}, {1, 2}, {2, 3}},
	}
	for i := 0; i < perSide; i++ {
		l.Attach = append(l.Attach,
			scenario.AttachDef{Node: uint16(westBase + 1 + i), Switch: uint16(i % 2)},
			scenario.AttachDef{Node: uint16(eastBase + 1 + i), Switch: uint16(2 + i%2)})
	}
	return l
}

// ringLayout is the failover fabric: four switches in a ring, H-ADPS,
// perSide west nodes on switch 0 and perSide east nodes on switch 1, so
// every west→east channel crosses the 0-1 trunk and, when that fails,
// must detour 0-3-2-1.
func ringLayout(perSide int) layout {
	l := layout{
		Name: "bulk-ring", DPS: "adps",
		Switches: []uint16{0, 1, 2, 3},
		Trunks:   [][2]uint16{{0, 1}, {1, 2}, {2, 3}, {3, 0}},
	}
	for i := 1; i <= perSide; i++ {
		l.Attach = append(l.Attach,
			scenario.AttachDef{Node: uint16(westBase + i), Switch: 0},
			scenario.AttachDef{Node: uint16(eastBase + i), Switch: 1})
	}
	return l
}
