package core

import (
	"fmt"
	"math"

	"repro/internal/admit"
	"repro/internal/edf"
)

// coreOps teaches the generic admission kernel (internal/admit) the star
// vocabulary: a unicast channel traverses exactly two links — its source
// uplink (hop 0) and destination downlink (hop 1) — and its partition is
// the two-way split {d_iu, d_id}. A multicast channel traverses the
// source uplink (hop 0) plus one downlink per sink (hops 1..N), all
// sharing the same {d_iu, d_id} split — the data crosses the uplink once
// and is copied onto every sink downlink by the switch. Channel IDs fit
// the 16-bit channel field of the paper's frames (Fig. 18.3).
var coreOps = &admit.Ops[Link, *Channel, Partition]{
	ID:     func(ch *Channel) admit.ID { return ch.ID },
	UtilCP: func(ch *Channel) (int64, int64) { return ch.Spec.C, ch.Spec.P },
	Links: func(ch *Channel) []Link {
		if !ch.Multicast() {
			ls := LinksOf(ch.Spec)
			return ls[:]
		}
		links := make([]Link, 0, 1+len(ch.Sinks))
		links = append(links, Uplink(ch.Spec.Src))
		for _, sink := range ch.Sinks {
			links = append(links, Downlink(sink))
		}
		return links
	},
	Task: func(ch *Channel, hop int) edf.Task {
		d := ch.Part.Up
		if hop >= 1 {
			d = ch.Part.Down
		}
		return edf.Task{C: ch.Spec.C, P: ch.Spec.P, D: d}
	},
	Less: func(a, b Link) bool {
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		return a.Dir < b.Dir
	},
	Part:    func(ch *Channel, _ Partition) Partition { return ch.Part },
	SetPart: func(ch *Channel, p Partition) { ch.Part = p },
	HasPart: func(ch *Channel, p Partition) bool { return ch.Part == p },
	Validate: func(ch *Channel, p Partition) {
		if !p.ValidFor(ch.Spec) {
			panic(fmt.Sprintf("core: DPS partition %+v violates conditions (8)/(9) for %v", p, ch))
		}
	},
	Clone: func(ch *Channel) *Channel {
		c := *ch
		return &c
	},
	MaxID: math.MaxUint16,
}

// State is the system state SS = {N, K} of §18.3.2: the set of currently
// active RT channels together with the link loads they induce. The node
// set N is implicit — any NodeID may appear; the star topology means a
// node's links exist as soon as a channel uses them.
//
// State is a thin view over the shared copy-on-write admission kernel
// (internal/admit), which maintains the per-link channel lists, the live
// EDF task sets and the exact rational utilization sums incrementally —
// so TasksOn and MeanLinkUtilization never scan the full channel map.
//
// State is not safe for concurrent use; the admission Controller (and
// above it, rtether.Network's lock) serializes access.
type State struct {
	k *admit.State[Link, *Channel, Partition]
}

// NewState returns an empty system state.
func NewState() *State {
	return &State{k: admit.NewState(coreOps)}
}

// Len returns the number of active channels, size(K).
func (st *State) Len() int { return st.k.Len() }

// Get returns the channel with the given ID, or nil.
func (st *State) Get(id ChannelID) *Channel { return st.k.Get(id) }

// Channels returns the active channels in establishment order. The caller
// must not mutate the returned channels.
func (st *State) Channels() []*Channel { return st.k.Channels() }

// allocID returns the next unused network-unique channel ID (see
// admit.State.AllocID for the wrap-around rules).
func (st *State) allocID() ChannelID { return st.k.AllocID() }

// add inserts a channel and updates link loads and per-link caches. The
// channel's ID must be unused.
func (st *State) add(ch *Channel) { st.k.Add(ch) }

// remove deletes a channel and updates link loads and per-link caches. It
// reports whether the channel existed.
func (st *State) remove(id ChannelID) bool { return st.k.Remove(id) }

// LinkLoad returns LL(l): the number of channels traversing the link
// (§18.4.2). Links with no channels have load zero.
func (st *State) LinkLoad(l Link) int { return st.k.LinkLoad(l) }

// LoadedLinks returns the number of links with at least one channel.
func (st *State) LoadedLinks() int { return st.k.LoadedLinks() }

// Links returns every link with at least one channel, in a deterministic
// order (by node, uplinks before downlinks).
func (st *State) Links() []Link { return st.k.Links() }

// TasksOn derives the supposed periodic task set of one link
// pseudo-processor (Eqs. 18.6-18.7): for every channel whose uplink is l,
// the task {C_i, P_i, d_iu}; for every channel whose downlink is l, the
// task {C_i, P_i, d_id}. The returned slice is a copy of the kernel's
// live task table.
func (st *State) TasksOn(l Link) []edf.Task { return st.k.TasksOn(l) }

// MeanLinkUtilization returns the mean of the per-link task-set
// utilizations over all loaded links — a coarse load metric used in
// reports. Returns 0 for an empty state.
func (st *State) MeanLinkUtilization() float64 { return st.k.MeanLinkUtilization() }
