package core

import (
	"errors"
	"fmt"
)

// Multicast validation errors.
var (
	// ErrNoSinks marks a multicast spec with an empty sink set.
	ErrNoSinks = errors.New("core: multicast spec needs at least one sink")
	// ErrDuplicateSink marks a multicast spec listing the same sink twice.
	ErrDuplicateSink = errors.New("core: multicast spec lists a sink twice")
)

// MulticastSpec is a request for a one-to-many RT channel: one source,
// N sink end-nodes, and the {P_i, C_i, d_i} triple shared by every
// branch. The paper's channels are strictly unicast; a multicast
// channel generalizes them by fanning the same periodic data out at the
// switch, so the source uplink carries the data once while every sink's
// downlink carries its own copy. The deadline is end-to-end for every
// sink: each sink must receive within D slots of release.
type MulticastSpec struct {
	Src   NodeID   // source end-node
	Sinks []NodeID // sink end-nodes (at least one, no duplicates)
	P     int64    // period of data
	C     int64    // amount of data per period (in maximal-sized frames)
	D     int64    // relative end-to-end deadline (per sink)

	// Priority orders channels for the survivability policy ladder; see
	// ChannelSpec.Priority. Defaults to 0.
	Priority int32
}

// Validate checks the spec against the paper's constraints, extended to
// the multicast shape: a non-empty duplicate-free sink set that does not
// include the source, and D >= 2C exactly as for unicast — on a star
// every branch is the same two-hop store-and-forward path.
func (s MulticastSpec) Validate() error {
	if len(s.Sinks) == 0 {
		return ErrNoSinks
	}
	seen := make(map[NodeID]bool, len(s.Sinks))
	for _, sink := range s.Sinks {
		if sink == s.Src {
			return fmt.Errorf("%w (node %d)", ErrSelfLoop, s.Src)
		}
		if seen[sink] {
			return fmt.Errorf("%w (node %d)", ErrDuplicateSink, sink)
		}
		seen[sink] = true
	}
	return s.ChannelSpec().Validate()
}

// ChannelSpec projects the multicast spec onto the unicast shape the
// rest of the state machinery stores: Dst is the first sink (the full
// sink set lives on Channel.Sinks).
func (s MulticastSpec) ChannelSpec() ChannelSpec {
	return s.Req().Spec
}

// String implements fmt.Stringer. Priority is shown only when set.
func (s MulticastSpec) String() string {
	if s.Priority != 0 {
		return fmt.Sprintf("mcast{%d→%v C=%d P=%d D=%d pri=%d}", s.Src, s.Sinks, s.C, s.P, s.D, s.Priority)
	}
	return fmt.Sprintf("mcast{%d→%v C=%d P=%d D=%d}", s.Src, s.Sinks, s.C, s.P, s.D)
}

// Req projects the spec onto the request vocabulary. An empty sink set
// stays a multicast request, which Req.Validate refuses with ErrNoSinks.
func (s MulticastSpec) Req() Req {
	spec := ChannelSpec{Src: s.Src, C: s.C, P: s.P, D: s.D, Priority: s.Priority}
	if len(s.Sinks) == 0 {
		return Req{Spec: spec, Sinks: []NodeID{}}
	}
	spec.Dst = s.Sinks[0]
	return Req{Spec: spec, Sinks: s.Sinks}
}
