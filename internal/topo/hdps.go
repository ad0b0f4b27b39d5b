package topo

import (
	"fmt"
	"slices"

	"repro/internal/admit"
	"repro/internal/core"
	"repro/internal/edf"
)

// HChannel is an RT channel routed across the fabric: the spec, its
// route, and the per-hop deadline split. For a unicast channel Route is
// a chain and d_i = sum(Hops); for a multicast channel Route is a
// shortest-path tree (Parents gives its shape) and every root→leaf
// path's budgets sum to d_i, so shared-prefix edges carry one budget
// rather than one per sink.
type HChannel struct {
	ID    core.ChannelID
	Spec  core.ChannelSpec
	Route []Edge
	Hops  []int64 // per-hop deadline budget, len == len(Route)
	// Rev counts the writes of Hops: every partition the kernel installs
	// (a first split, a repartition, a rollback) bumps it, so a reader
	// that keeps something derived from Hops knows when to rebuild it.
	Rev uint64

	// Parents encodes the tree shape of a multicast route: Parents[i] is
	// the index of the edge feeding Route[i], -1 for the root (source
	// uplink). Edges are ordered so that Parents[i] < i. Nil for unicast
	// chains (edge i-1 feeds edge i).
	Parents []int
	// Sinks is the sink set of a multicast channel (nil for unicast);
	// Leaves[k] is the index of the edge delivering to Sinks[k].
	Sinks  []core.NodeID
	Leaves []int

	// Seq orders channels by admission; a re-admission gets a new one.
	Seq uint64
}

// String implements fmt.Stringer.
func (c *HChannel) String() string {
	return fmt.Sprintf("HRT#%d %v hops=%v", c.ID, c.Spec, c.Hops)
}

// Multicast reports whether the channel is a one-to-many tree.
func (c *HChannel) Multicast() bool { return len(c.Sinks) > 0 }

// parentOf returns the index of the edge feeding Route[i], -1 at the
// root — uniform over chains and trees.
func (c *HChannel) parentOf(i int) int {
	if c.Parents == nil {
		return i - 1
	}
	return c.Parents[i]
}

// PathTo returns the edge indices of the root→leaf path delivering to
// the k'th sink, in root-first order. For a unicast channel k must be 0
// and the path is the whole route.
func (c *HChannel) PathTo(k int) []int {
	if !c.Multicast() {
		path := make([]int, len(c.Route))
		for i := range path {
			path[i] = i
		}
		return path
	}
	var rev []int
	for e := c.Leaves[k]; e >= 0; e = c.parentOf(e) {
		rev = append(rev, e)
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// topoOps teaches the generic admission kernel (internal/admit) the
// fabric vocabulary: a channel traverses the directed edges of its route,
// and its partition is the per-hop deadline budget vector (empty until the
// first one is installed, when every hop's task has D = 0).
var topoOps = &admit.Ops[Edge, *HChannel, []int64]{
	ID:     func(ch *HChannel) admit.ID { return ch.ID },
	UtilCP: func(ch *HChannel) (int64, int64) { return ch.Spec.C, ch.Spec.P },
	Links:  func(ch *HChannel) []Edge { return ch.Route },
	Task: func(ch *HChannel, hop int) edf.Task {
		t := edf.Task{C: ch.Spec.C, P: ch.Spec.P}
		if len(ch.Hops) > 0 {
			t.D = ch.Hops[hop]
		}
		return t
	},
	Less: edgeLess,
	Part: func(ch *HChannel, dst []int64) []int64 { return append(dst[:0], ch.Hops...) },
	SetPart: func(ch *HChannel, v []int64) {
		ch.Hops = append(ch.Hops[:0], v...)
		ch.Rev++
	},
	HasPart:  func(ch *HChannel, v []int64) bool { return equalVec(ch.Hops, v) },
	Validate: validateVector,
	Clone: func(ch *HChannel) *HChannel {
		c := *ch
		c.Hops = append([]int64(nil), ch.Hops...)
		return &c
	},
}

// State holds the routed channels and per-edge loads of a fabric.
//
// Like the star state (core.State), it is a thin view over the shared
// copy-on-write admission kernel (internal/admit), which maintains the
// per-edge channel lists, live EDF task sets and exact rational
// utilization sums incrementally — so TasksOn and the admission verify
// sweep never scan the full channel map.
type State struct {
	k *admit.State[Edge, *HChannel, []int64]
}

// NewState returns an empty fabric state.
func NewState() *State {
	return &State{k: admit.NewState(topoOps)}
}

// Len returns the number of routed channels.
func (st *State) Len() int { return st.k.Len() }

// Get returns a channel by ID, or nil.
func (st *State) Get(id core.ChannelID) *HChannel { return st.k.Get(id) }

// Channels returns channels in establishment order.
func (st *State) Channels() []*HChannel { return st.k.Channels() }

// LinkLoad returns the number of channels traversing the directed edge.
func (st *State) LinkLoad(e Edge) int { return st.k.LinkLoad(e) }

// LoadedLinks returns the number of loaded edges.
func (st *State) LoadedLinks() int { return st.k.LoadedLinks() }

// Edges returns every loaded edge in deterministic order.
func (st *State) Edges() []Edge { return st.k.Links() }

// edgeLess is the deterministic verification order on directed edges.
func edgeLess(a, b Edge) bool {
	less := func(a, b Endpoint) int {
		switch {
		case a.Switch != b.Switch:
			if !a.Switch {
				return -1
			}
			return 1
		case a.ID != b.ID:
			if a.ID < b.ID {
				return -1
			}
			return 1
		default:
			return 0
		}
	}
	c := less(a.From, b.From)
	if c == 0 {
		c = less(a.To, b.To)
	}
	return c < 0
}

// TasksOn derives the supposed task set of one directed edge. The
// returned slice is a copy of the kernel's live task table.
func (st *State) TasksOn(e Edge) []edf.Task { return st.k.TasksOn(e) }

// MeanLinkUtilization returns the mean of the per-edge task-set
// utilizations over all loaded edges. Returns 0 for an empty state.
func (st *State) MeanLinkUtilization() float64 { return st.k.MeanLinkUtilization() }

// add, remove and allocID delegate to the kernel (tests use them to
// build states directly).
func (st *State) add(ch *HChannel)              { st.k.Add(ch) }
func (st *State) remove(id core.ChannelID) bool { return st.k.Remove(id) }
func (st *State) allocID() core.ChannelID       { return st.k.AllocID() }

// HDPS is a hop-count-general deadline partitioning scheme: it assigns a
// per-hop deadline vector to every channel such that the vector sums to
// d_i (condition (8) generalized; on a multicast tree, every root→leaf
// path does) and every element is at least C_i (condition (9)
// generalized). A channel's vector depends only on its own spec and
// route and the loads of the edges it traverses (true for HSDPS and
// HADPS), so a scheme is declared per channel (Split): that is what lets
// the admission kernel recompute only the channels whose vector can have
// moved — under a LoadAdaptive scheme each channel on an edge a decision
// touched, otherwise the decision's new channels alone.
type HDPS interface {
	// Name identifies the scheme in reports.
	Name() string
	// Split computes ch's vector from hopLoads, the loads of its route's
	// edges in hop order, building it in dst's storage (which may be
	// nil): the caller keeps a copy if it reuses dst.
	Split(ch *HChannel, hopLoads, dst []int64) []int64
	// LoadAdaptive reports whether Split reads hopLoads; a scheme that
	// does not is fixed by the spec and route, so no committed vector
	// ever moves.
	LoadAdaptive() bool
	// Partition returns per-hop deadline vectors for all channels: Split
	// under each channel's current hop loads.
	Partition(st *State) map[core.ChannelID][]int64
}

// partition is the full-state Partition both schemes share.
func partition(st *State, h HDPS) map[core.ChannelID][]int64 {
	parts := make(map[core.ChannelID][]int64, st.Len())
	var loads []int64
	for _, ch := range st.Channels() {
		loads = st.k.HopLoads(ch, loads[:0])
		parts[ch.ID] = slices.Clip(h.Split(ch, loads, nil))
	}
	return parts
}

// split distributes ch's deadline over its route in proportion to the
// weights (equally when they are nil) into dst's storage: splitDeadline
// on a unicast chain, splitDeadlineTree on a multicast tree.
func split(ch *HChannel, weights, dst []int64) []int64 {
	if ch.Multicast() {
		return splitDeadlineTree(dst, ch, weights)
	}
	out := slices.Grow(dst[:0], len(ch.Route))[:len(ch.Route)]
	splitDeadline(out, ch.Spec.D, ch.Spec.C, weights)
	return out
}

// HSDPS splits every channel's deadline equally over its hops —
// SDPS generalized (on two-hop routes it reduces to SDPS exactly).
type HSDPS struct{}

// Name implements HDPS.
func (HSDPS) Name() string { return "H-SDPS" }

// Split implements HDPS: the equal split.
func (HSDPS) Split(ch *HChannel, _, dst []int64) []int64 { return split(ch, nil, dst) }

// LoadAdaptive implements HDPS: the equal split is fixed by the route.
func (HSDPS) LoadAdaptive() bool { return false }

// Partition implements HDPS.
func (h HSDPS) Partition(st *State) map[core.ChannelID][]int64 { return partition(st, h) }

// HADPS weights each hop's share by that directed edge's link load —
// ADPS generalized (on two-hop routes it reduces to ADPS up to rounding).
type HADPS struct{}

// Name implements HDPS.
func (HADPS) Name() string { return "H-ADPS" }

// Split implements HDPS: the load-weighted split.
func (HADPS) Split(ch *HChannel, hopLoads, dst []int64) []int64 { return split(ch, hopLoads, dst) }

// LoadAdaptive implements HDPS: the split follows the edge loads.
func (HADPS) LoadAdaptive() bool { return true }

// Partition implements HDPS.
func (h HADPS) Partition(st *State) map[core.ChannelID][]int64 { return partition(st, h) }

// splitDeadline distributes D over the len(out) hops proportionally to
// the weights (equally when they are nil or all zero), with every hop
// getting at least C, summing exactly to D, and writes the shares into
// out. Requires D >= len(out)*C (checked by admission). Deterministic.
func splitDeadline(out []int64, d, c int64, weights []int64) {
	h := len(out)
	var totalW int64
	for _, w := range weights {
		totalW += w
	}
	var acc int64
	for i := range out {
		share := d / int64(h)
		if totalW != 0 {
			share = d * weights[i] / totalW
		}
		share = max(share, c)
		out[i] = share
		acc += share
	}
	// Rebalance to sum exactly to D: shave overweight hops round-robin,
	// then pour any remainder round-robin.
	for i := 0; acc > d; i = (i + 1) % h {
		if out[i] > c {
			out[i]--
			acc--
		}
	}
	for i := 0; acc < d; i = (i + 1) % h {
		out[i]++
		acc++
	}
}

// splitDeadlineTree distributes D over the edges of a multicast tree so
// that every root→leaf path's budgets sum exactly to D and every edge
// gets at least C — the tree generalization of splitDeadline (to which
// it reduces on a chain, up to rounding). Top-down, an edge with
// remaining deadline R splits R over the deepest descendant chain
// through that edge (weight-proportionally, via splitDeadline; ties: the
// first child in edge order), keeps the chain's first share for itself,
// and hands R minus that share to every child subtree; a leaf edge
// absorbs all remaining deadline, which is what makes each path sum
// exact. Shared prefix edges are budgeted once — the whole point of tree
// admission. Nil weights split equally. Requires D >= depth*C along every
// path (checked at validation) and Parents[i] < i. Deterministic.
//
// The result is dst[:n], built in dst's storage, grown to 5n: the rest is
// the split's scratch, so a reused dst makes it allocation-free.
func splitDeadlineTree(dst []int64, ch *HChannel, weights []int64) []int64 {
	n := len(ch.Route)
	buf := slices.Grow(dst[:0], 5*n)[:5*n]
	out, rem, next, cw, cs := buf[:n], buf[n:2*n], buf[2*n:3*n], buf[3*n:4*n:4*n], buf[4*n:]
	// Bottom-up (children have higher indices): rem[i] is the length of
	// the deepest chain from edge i to a leaf, and next[i] the child that
	// chain continues through (-1 at a leaf). Children arrive in
	// descending index order, so on a tie the first child wins.
	for i := range rem {
		rem[i], next[i] = 1, -1
	}
	for i := n - 1; i >= 0; i-- {
		if p := ch.parentOf(i); p >= 0 && rem[i]+1 >= rem[p] {
			rem[p], next[p] = rem[i]+1, int64(i)
		}
	}
	// Top-down (parents have lower indices): rem[i] becomes the deadline
	// remaining at edge i, out[i] its share.
	for i := 0; i < n; i++ {
		r := ch.Spec.D
		if p := ch.parentOf(i); p >= 0 {
			r = rem[p] - out[p]
		}
		rem[i] = r
		if next[i] < 0 {
			out[i] = r
			continue
		}
		w := cw[:0]
		for cur := int64(i); cur >= 0; cur = next[cur] {
			if weights == nil {
				w = append(w, 1)
			} else {
				w = append(w, weights[cur])
			}
		}
		splitDeadline(cs[:len(w)], r, ch.Spec.C, w)
		out[i] = cs[0]
	}
	return out
}
