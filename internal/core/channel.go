// Package core implements the primary contribution of Hoang & Jonsson
// (IPPS 2004): real-time channels over full-duplex switched Ethernet with
// EDF scheduling, switch-side admission control based on per-link EDF
// feasibility analysis, and deadline partitioning schemes (SDPS and ADPS)
// that split each channel's end-to-end deadline across its uplink and
// downlink.
//
// Terminology follows the paper: an RT channel i is a virtual connection
// {P_i, C_i, d_i} between two end-nodes, with all three quantities in
// maximal-sized-frame timeslots. A star topology is assumed: every channel
// traverses exactly two physical links, source→switch (uplink) and
// switch→destination (downlink); each full-duplex link direction is an
// independent pseudo-processor from the scheduling point of view (§18.3.2).
package core

import (
	"errors"
	"fmt"

	"repro/internal/admit"
)

// NodeID identifies an end-node in the star network.
type NodeID uint16

// ChannelID is the network-unique RT channel identifier assigned by the
// switch during establishment. The star's IDs fit the 16-bit RT channel
// ID field of the establishment frames and of the stamped IP destination
// address (§18.2.2); a fabric's use all 32 bits. It aliases the admission
// kernel's ID type so the star and fabric controllers share one allocator
// implementation.
type ChannelID = admit.ID

// ChannelSpec is a request for an RT channel: the {P_i, C_i, d_i} triple of
// §18.2.2 plus the endpoints. All quantities are integer timeslots where
// one slot is the transmission time of one maximal-sized frame.
type ChannelSpec struct {
	Src NodeID // source end-node
	Dst NodeID // destination end-node
	P   int64  // period of data
	C   int64  // amount of data per period (in maximal-sized frames)
	D   int64  // relative end-to-end deadline

	// Priority orders channels for the survivability policy ladder:
	// after a link or switch failure, a preempting policy may evict
	// strictly lower-priority channels to make room for re-routed ones.
	// Higher is more important; 0 (the default) preserves the paper's
	// priority-free behavior. Priority never influences admission or EDF
	// scheduling on a healthy network.
	Priority int32
}

// Validation errors for channel specs.
var (
	ErrSelfLoop         = errors.New("core: source and destination are the same node")
	ErrNonPositiveC     = errors.New("core: capacity C must be positive")
	ErrNonPositiveP     = errors.New("core: period P must be positive")
	ErrCExceedsP        = errors.New("core: capacity C exceeds period P")
	ErrDeadlineTooShort = errors.New("core: deadline D below 2C (store-and-forward lower bound, condition (9))")
)

// Validate checks the spec against the paper's constraints. In particular
// D >= 2C must hold: the deadline is split across two links and each part
// must be at least the capacity (conditions (8) and (9), §18.4) — a channel
// with D < 2C "cannot, by definition, be EDF-feasible for a
// store-and-forward switch".
func (s ChannelSpec) Validate() error {
	switch {
	case s.Src == s.Dst:
		return fmt.Errorf("%w (node %d)", ErrSelfLoop, s.Src)
	case s.C <= 0:
		return fmt.Errorf("%w (C=%d)", ErrNonPositiveC, s.C)
	case s.P <= 0:
		return fmt.Errorf("%w (P=%d)", ErrNonPositiveP, s.P)
	case s.C > s.P:
		return fmt.Errorf("%w (C=%d > P=%d)", ErrCExceedsP, s.C, s.P)
	case s.D < 2*s.C:
		return fmt.Errorf("%w (D=%d < 2C=%d)", ErrDeadlineTooShort, s.D, 2*s.C)
	}
	return nil
}

// String implements fmt.Stringer. Priority is shown only when set, so
// priority-free specs render exactly as they always did.
func (s ChannelSpec) String() string {
	if s.Priority != 0 {
		return fmt.Sprintf("chan{%d→%d C=%d P=%d D=%d pri=%d}", s.Src, s.Dst, s.C, s.P, s.D, s.Priority)
	}
	return fmt.Sprintf("chan{%d→%d C=%d P=%d D=%d}", s.Src, s.Dst, s.C, s.P, s.D)
}

// Partition is one channel's deadline split {d_iu, d_id} produced by a
// deadline partitioning scheme. Invariant (condition (8)): Up + Down == D.
// Invariant (condition (9)): Up >= C and Down >= C.
type Partition struct {
	Up   int64 // d_iu: guaranteed worst-case delivery time on the uplink
	Down int64 // d_id: guaranteed worst-case delivery time on the downlink
}

// ValidFor reports whether the partition upholds conditions (8) and (9)
// for the given spec.
func (p Partition) ValidFor(s ChannelSpec) bool {
	return p.Up+p.Down == s.D && p.Up >= s.C && p.Down >= s.C
}

// Channel is an established RT channel: the accepted spec, the network
// unique ID assigned by the switch, and the current deadline partition.
type Channel struct {
	ID   ChannelID
	Spec ChannelSpec
	Part Partition

	// Sinks is the full sink set of a multicast channel (Spec.Dst is then
	// Sinks[0]); nil for the paper's unicast channels. The slice is
	// immutable after establishment — clones share it.
	Sinks []NodeID
}

// Multicast reports whether the channel is a one-to-many channel.
func (c *Channel) Multicast() bool { return len(c.Sinks) > 0 }

// String implements fmt.Stringer.
func (c *Channel) String() string {
	return fmt.Sprintf("RT#%d %v up=%d down=%d", c.ID, c.Spec, c.Part.Up, c.Part.Down)
}
