package rtether

import (
	"fmt"

	"repro/internal/admit"
	"repro/internal/core"
	"repro/internal/edf"
	"repro/internal/topo"
)

// ErrIDsExhausted refuses an establishment that finds every channel ID
// in use. A star's IDs are the 16-bit channel field of the paper's frames
// (1..65535); a fabric's are 32 bits.
var ErrIDsExhausted = admit.ErrIDsExhausted

// LinkDir classifies the direction of the pseudo-processor (one directed
// half of a full-duplex physical link) named in an AdmissionError.
type LinkDir uint8

const (
	// DirUp is an end-node → switch link.
	DirUp LinkDir = iota
	// DirDown is a switch → end-node link.
	DirDown
	// DirTrunk is a switch → switch link (multi-switch topologies only).
	DirTrunk
)

// String implements fmt.Stringer.
func (d LinkDir) String() string {
	switch d {
	case DirUp:
		return "up"
	case DirDown:
		return "down"
	case DirTrunk:
		return "trunk"
	default:
		return fmt.Sprintf("dir(%d)", uint8(d))
	}
}

// AdmissionError reports why admission control rejected a channel: which
// directed link failed the per-link EDF feasibility test (§18.3.2), where
// on the requested route it sits, and how overloaded it was. It wraps
// ErrInfeasible, so errors.Is(err, rtether.ErrInfeasible) keeps working
// for callers that only care about accept/reject.
type AdmissionError struct {
	// Spec is the rejected request.
	Spec ChannelSpec
	// Link names the rejecting directed link, e.g. "link(1,up)" on a star
	// or "sw0→sw1" on a fabric.
	Link string
	// Node is the end-node of the rejecting link for DirUp/DirDown links;
	// zero for trunks.
	Node NodeID
	// Dir is the rejecting link's direction.
	Dir LinkDir
	// Hop is the index of the rejecting link on the requested channel's
	// route (0 = source uplink; on a star, 1 = destination downlink). It is
	// -1 when the failure surfaced on a link the new channel does not
	// traverse — repartitioning an existing channel made that link
	// infeasible.
	Hop int
	// Utilization is the total utilization of the rejecting link's task
	// set, including the tentative channel.
	Utilization float64
	// Slack is t - h(t) at the violated demand checkpoint (negative: the
	// link was asked for more service than time available). Zero when the
	// first constraint (utilization > 1) failed instead.
	Slack int64
	// Branch is the index into a rejected multicast request's sink list of
	// the branch whose delivery path traverses the rejecting link — the
	// first such sink when the link is shared by several branches (the
	// source uplink or a shared trunk). It is -1 for unicast rejections and
	// when the failing link lies outside the requested tree (a
	// repartitioned channel's link went infeasible).
	Branch int
	// Sink is the sink node of the failing branch; meaningful only when
	// Branch >= 0.
	Sink NodeID
	// Reason is the feasibility verdict in the analysis' own words, e.g.
	// "infeasible(demand) at t=40 (h=45), U=0.9750".
	Reason string
}

// Error implements error.
func (e *AdmissionError) Error() string {
	where := e.Link
	if e.Hop >= 0 {
		where = fmt.Sprintf("%s (hop %d, %s)", e.Link, e.Hop, e.Dir)
	} else {
		where = fmt.Sprintf("%s (%s, repartitioned channel)", e.Link, e.Dir)
	}
	if e.Branch >= 0 {
		where = fmt.Sprintf("%s, branch %d to node %d", where, e.Branch, e.Sink)
	}
	return fmt.Sprintf("rtether: %v rejected at %s: %s", e.Spec, where, e.Reason)
}

// Unwrap lets errors.Is match ErrInfeasible.
func (e *AdmissionError) Unwrap() error { return ErrInfeasible }

// slackOf extracts the demand slack from a feasibility result.
func slackOf(res edf.Result) int64 {
	if res.Verdict == edf.InfeasibleDemand {
		return res.ViolationAt - res.DemandAt
	}
	return 0
}

// blame builds the public diagnostic of a rejection of the list reqs (one
// request for a per-verdict rejection). locate places the rejecting link
// on a request's route: its hop, and the index of the first sink whose
// delivery path crosses it, or a negative hop when the route avoids the
// link. The first request whose route crosses the link is named; the
// failure may instead sit on a link of a repartitioned pre-existing
// channel, and then the first request stands in with Hop -1. A unicast
// is the one-branch case and reports no Branch.
func blame(reqs []core.Req, link fmt.Stringer, res edf.Result, locate func(core.Req) (hop, branch int)) *AdmissionError {
	r, hop, branch := reqs[0], -1, -1
	for _, cand := range reqs {
		if h, b := locate(cand); h >= 0 {
			r, hop, branch = cand, h, b
			break
		}
	}
	ae := &AdmissionError{
		Spec:        r.Spec,
		Link:        link.String(),
		Utilization: res.Utilization,
		Slack:       slackOf(res),
		Reason:      res.String(),
		Hop:         hop,
		Branch:      -1,
	}
	if r.Multicast() && hop >= 0 && branch >= 0 {
		ae.Branch, ae.Sink = branch, r.Sinks[branch]
	}
	return ae
}

// starDiagnostic converts a star-network rejection into the typed public
// diagnostic. A request's tree is its source uplink (hop 0, shared by
// every branch: the first sink stands in) plus one downlink per sink
// (hop 1). Non-rejection errors, nil included, pass through unchanged.
func starDiagnostic(reqs []core.Req, err error) error {
	rej, ok := err.(*core.RejectionError)
	if !ok {
		return err
	}
	ae := blame(reqs, rej.Link, rej.Result, func(r core.Req) (hop, branch int) {
		switch {
		case rej.Link.Dir == core.Up:
			if rej.Link.Node == r.Spec.Src {
				return 0, 0
			}
		case !r.Multicast():
			if rej.Link.Node == r.Spec.Dst {
				return 1, 0
			}
		default:
			for k, sink := range r.Sinks {
				if rej.Link.Node == sink {
					return 1, k
				}
			}
		}
		return -1, -1
	})
	ae.Node, ae.Dir = rej.Link.Node, DirUp
	if rej.Link.Dir == core.Down {
		ae.Dir = DirDown
	}
	return ae
}

// diagnostic converts a fabric rejection into the typed public
// diagnostic. Hop is the rejecting edge's index on the request's route
// as routed now — the chain of a unicast, the distribution tree of a
// multicast. Non-rejection errors pass through unchanged.
func (b *fabricBackend) diagnostic(reqs []core.Req, err error) error {
	rej, ok := err.(*topo.RejectionError)
	if !ok {
		return err
	}
	ae := blame(reqs, rej.Edge, rej.Result, func(r core.Req) (hop, branch int) {
		tree, parents, leaves, _ := b.top.inner.RouteOf(r) // nil when routing itself failed
		for i, e := range tree {
			if e != rej.Edge {
				continue
			}
			for k, leaf := range leaves {
				for up := leaf; up >= 0; up = parents[up] {
					if up == i {
						return i, k
					}
				}
			}
			return i, -1
		}
		return -1, -1
	})
	switch {
	case !rej.Edge.From.Switch:
		ae.Dir, ae.Node = DirUp, NodeID(rej.Edge.From.ID)
	case !rej.Edge.To.Switch:
		ae.Dir, ae.Node = DirDown, NodeID(rej.Edge.To.ID)
	default:
		ae.Dir = DirTrunk
	}
	return ae
}
