// Package route owns all path and tree computation over the switch
// fabric. It was extracted from internal/topo so that the physical
// layout is mutable at runtime:
//
//   - Graph is the fabric itself — switches, trunks and node
//     attachments — plus the live up/down state of every element.
//     SetLinkUp and SetSwitchUp flip availability and bump a version
//     counter so consumers know cached routes may be stale.
//   - Shortest is the one routing policy: Route picks a unicast path,
//     Tree a multicast distribution tree, both along deterministic BFS
//     shortest paths over the live graph (bit-for-bit the historical
//     fixed routes on a fully-up graph).
//
// internal/topo consumes this package for admission-control routing and
// re-exports the shared vocabulary types (SwitchID, Endpoint, Edge) as
// aliases, so existing call sites keep compiling unchanged.
package route

import (
	"errors"
	"fmt"

	"repro/internal/core"
)

// SwitchID identifies a switch in the fabric.
type SwitchID uint16

// Endpoint is one end of a directed link: either an end-node or a switch.
type Endpoint struct {
	Switch bool
	ID     uint16
}

// NodeEnd returns the endpoint of an end-node.
func NodeEnd(n core.NodeID) Endpoint { return Endpoint{ID: uint16(n)} }

// SwitchEnd returns the endpoint of a switch.
func SwitchEnd(s SwitchID) Endpoint { return Endpoint{Switch: true, ID: uint16(s)} }

// String implements fmt.Stringer.
func (e Endpoint) String() string {
	if e.Switch {
		return fmt.Sprintf("sw%d", e.ID)
	}
	return fmt.Sprintf("n%d", e.ID)
}

// Edge is one directed link (one pseudo-processor, as in §18.3.2 — each
// full-duplex physical link contributes two Edges).
type Edge struct {
	From, To Endpoint
}

// String implements fmt.Stringer.
func (e Edge) String() string { return e.From.String() + "→" + e.To.String() }

// Graph construction and mutation errors.
var (
	// ErrUnknownSwitch marks an operation naming a switch that was never added.
	ErrUnknownSwitch = errors.New("route: unknown switch")
	// ErrUnknownNode marks a routing request for a node that was never attached.
	ErrUnknownNode = errors.New("route: unknown node")
	// ErrDuplicate marks re-registration of an existing element: a switch
	// ID already added, a self-loop or duplicate trunk, or re-attachment
	// of an already-homed node.
	ErrDuplicate = errors.New("route: duplicate element")
	// ErrNoRoute marks a (src, dst) pair with no connecting path on the
	// live graph — either never connected or partitioned by failures.
	ErrNoRoute = errors.New("route: no route between nodes")
	// ErrUnknownLink marks SetLinkUp on a trunk that does not exist.
	ErrUnknownLink = errors.New("route: unknown link")
)
