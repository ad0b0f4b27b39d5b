// Package topo extends the paper's star network to the multi-switch
// topologies its future-work section calls for (§18.5: "networks
// consisting of many interconnected Switches"). End-nodes attach to
// switches, switches interconnect arbitrarily, channels are routed along
// deterministic shortest paths (route.Shortest), and the deadline of a
// channel is partitioned over every directed link of its route —
// generalizing SDPS/ADPS from two hops to h hops. Admission
// control tests EDF feasibility of every directed link, exactly as in
// the star case.
//
// All graph and path computation lives in internal/route; this package
// re-exports the vocabulary types (SwitchID, Endpoint, Edge) as aliases
// and layers deadline partitioning plus EDF admission on top. The
// underlying route.Graph is mutable at runtime — SetLinkUp/SetSwitchUp
// flip element availability for survivability scenarios — while the
// admission state keeps the routes channels were admitted with until the
// owner explicitly re-routes them.
//
// The package is analysis-level (like the paper's own evaluation): it
// decides acceptance; the cycle-accurate simulator remains single-switch.
package topo

import (
	"repro/internal/core"
	"repro/internal/route"
)

// SwitchID identifies a switch in the fabric.
type SwitchID = route.SwitchID

// Endpoint is one end of a directed link: either an end-node or a switch.
type Endpoint = route.Endpoint

// Edge is one directed link (one pseudo-processor, as in §18.3.2 — each
// full-duplex physical link contributes two Edges).
type Edge = route.Edge

// NodeEnd returns the endpoint of an end-node.
func NodeEnd(n core.NodeID) Endpoint { return route.NodeEnd(n) }

// SwitchEnd returns the endpoint of a switch.
func SwitchEnd(s SwitchID) Endpoint { return route.SwitchEnd(s) }

// Topology construction errors, shared with internal/route (errors.Is
// matches across both packages).
var (
	// ErrUnknownSwitch marks an operation naming a switch that was never added.
	ErrUnknownSwitch = route.ErrUnknownSwitch
	// ErrUnknownNode marks a routing request for a node that was never attached.
	ErrUnknownNode = route.ErrUnknownNode
	// ErrDuplicate marks re-registration of an existing element.
	ErrDuplicate = route.ErrDuplicate
	// ErrNoRoute marks a (src, dst) pair with no connecting path left.
	ErrNoRoute = route.ErrNoRoute
	// ErrUnknownLink marks SetLinkUp on a trunk that does not exist.
	ErrUnknownLink = route.ErrUnknownLink
)

// Topology is the physical layout: switches, inter-switch links and node
// attachments, owned by a route.Graph and routed by route.Shortest.
// Construction and mutation are not safe for concurrent use.
type Topology struct {
	graph *route.Graph
}

// NewTopology returns an empty fabric.
func NewTopology() *Topology {
	return &Topology{graph: route.NewGraph()}
}

// Graph exposes the underlying mutable route.Graph.
func (t *Topology) Graph() *route.Graph { return t.graph }

// AddSwitch registers a switch.
func (t *Topology) AddSwitch(id SwitchID) error { return t.graph.AddSwitch(id) }

// ConnectSwitches adds a full-duplex trunk between two switches.
func (t *Topology) ConnectSwitches(a, b SwitchID) error { return t.graph.ConnectSwitches(a, b) }

// AttachNode homes an end-node on a switch.
func (t *Topology) AttachNode(n core.NodeID, s SwitchID) error { return t.graph.AttachNode(n, s) }

// Home returns the switch a node attaches to.
func (t *Topology) Home(n core.NodeID) (SwitchID, bool) { return t.graph.Home(n) }

// SetLinkUp marks the trunk between a and b as up or down, reporting
// whether the state changed. Routes computed before a flip are not
// recomputed here; the admission owner decides what to re-route.
func (t *Topology) SetLinkUp(a, b SwitchID, up bool) (bool, error) {
	return t.graph.SetLinkUp(a, b, up)
}

// SetSwitchUp marks a switch as up or down, reporting whether the state
// changed.
func (t *Topology) SetSwitchUp(s SwitchID, up bool) (bool, error) {
	return t.graph.SetSwitchUp(s, up)
}

// Version counts route-invalidating graph mutations (see route.Graph.Version).
func (t *Topology) Version() uint64 { return t.graph.Version() }

// Route returns the directed links of the path from src to dst:
// src→home(src), a trunk sequence, and home(dst)→dst. route.Shortest
// uses BFS with sorted adjacency, making the choice deterministic among
// equal-length paths.
func (t *Topology) Route(src, dst core.NodeID) ([]Edge, error) {
	return route.Shortest{}.Route(t.graph, src, dst)
}

// MulticastTree routes a distribution tree from src to every sink
// (route.Shortest.Tree: a deterministic shortest-path tree, with shared
// prefixes deduped into single tree edges). It returns the tree's
// directed edges (edge 0 is the source uplink), the parent index of each
// edge (-1 for the root; always parents[i] < i), and for each sink the
// index of its delivering leaf edge.
func (t *Topology) MulticastTree(src core.NodeID, sinks []core.NodeID) (edges []Edge, parents []int, leaves []int, err error) {
	return route.Shortest{}.Tree(t.graph, src, sinks)
}

// RouteOf routes a request: a chain (nil parents and leaves) for a
// unicast, a distribution tree for a multicast.
func (t *Topology) RouteOf(r core.Req) (route []Edge, parents, leaves []int, err error) {
	if r.Multicast() {
		return t.MulticastTree(r.Spec.Src, r.Sinks)
	}
	route, err = t.Route(r.Spec.Src, r.Spec.Dst)
	return route, nil, nil, err
}

// Line builds a chain of k switches (IDs 0..k-1) with trunks between
// neighbours — the canonical multi-switch evaluation fabric.
func Line(k int) *Topology {
	t := NewTopology()
	for i := 0; i < k; i++ {
		if err := t.AddSwitch(SwitchID(i)); err != nil {
			panic(err)
		}
	}
	for i := 1; i < k; i++ {
		if err := t.ConnectSwitches(SwitchID(i-1), SwitchID(i)); err != nil {
			panic(err)
		}
	}
	return t
}
