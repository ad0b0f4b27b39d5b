package topo

import (
	"fmt"

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

	// Parents encodes the tree shape of a multicast route: Parents[i] is
	// the index of the edge feeding Route[i], -1 for the root (source
	// uplink). Edges are ordered so that Parents[i] < i. Nil for unicast
	// chains (edge i-1 feeds edge i).
	Parents []int
	// Sinks is the sink set of a multicast channel (nil for unicast);
	// Leaves[k] is the index of the edge delivering to Sinks[k].
	Sinks  []core.NodeID
	Leaves []int
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
	Part: func(ch *HChannel) []int64 { return append([]int64(nil), ch.Hops...) },
	SetPart: func(ch *HChannel, v []int64) {
		ch.Hops = append(ch.Hops[:0], v...)
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

// channelsOn returns the channel hops traversing an edge in establishment
// order. The returned slice is the live kernel cache — callers must not
// mutate or retain it.
func (st *State) channelsOn(e Edge) []admit.Ref[*HChannel] { return st.k.ChannelsOn(e) }

// MeanLinkUtilization returns the mean of the per-edge task-set
// utilizations over all loaded edges. Returns 0 for an empty state.
func (st *State) MeanLinkUtilization() float64 { return st.k.MeanLinkUtilization() }

// add, remove and allocID delegate to the kernel (tests use them to
// build states directly).
func (st *State) add(ch *HChannel)              { st.k.Add(ch) }
func (st *State) remove(id core.ChannelID) bool { return st.k.Remove(id) }
func (st *State) allocID() core.ChannelID       { return st.k.AllocID() }

// HDPS is a hop-count-general deadline partitioning scheme: it assigns a
// per-hop deadline vector to every channel in the state such that the
// vector sums to d_i (condition (8) generalized) and every element is at
// least C_i (condition (9) generalized). A channel's vector may depend
// only on its own spec/route and the loads of the edges it traverses
// (true for HSDPS and HADPS), which is what lets the fabric admission
// controller repartition copy-on-write.
type HDPS interface {
	// Name identifies the scheme in reports.
	Name() string
	// Partition returns per-hop deadline vectors for all channels.
	Partition(st *State) map[core.ChannelID][]int64
	// PartitionTouched returns new vectors after a mutation that touched
	// the given edges: one for every channel without a vector yet, and,
	// for every other returned channel (all of which traverse a touched
	// edge), what Partition(st) would return. Channels it omits keep
	// their committed vectors.
	PartitionTouched(st *State, touched []Edge) map[core.ChannelID][]int64
}

// HSDPS splits every channel's deadline equally over its hops —
// SDPS generalized (on two-hop routes it reduces to SDPS exactly).
type HSDPS struct{}

// Name implements HDPS.
func (HSDPS) Name() string { return "H-SDPS" }

// vectorOf computes the equal split of one channel — shared by the full
// and incremental paths so they agree bit for bit. Unicast chains use
// splitDeadline exactly as before; multicast trees use the tree
// recursion with unit weights.
func (HSDPS) vectorOf(ch *HChannel) []int64 {
	weights := make([]int64, len(ch.Route))
	for i := range weights {
		weights[i] = 1
	}
	if ch.Multicast() {
		return splitDeadlineTree(ch, weights)
	}
	return splitDeadline(ch.Spec.D, ch.Spec.C, weights)
}

// Partition implements HDPS.
func (h HSDPS) Partition(st *State) map[core.ChannelID][]int64 {
	parts := make(map[core.ChannelID][]int64, st.Len())
	for _, ch := range st.Channels() {
		parts[ch.ID] = h.vectorOf(ch)
	}
	return parts
}

// partitionTouched is the shared shell of the load-adaptive
// PartitionTouched implementations: collect the vector of each channel
// traversing a touched edge, deduplicating channels that traverse several
// of them.
func partitionTouched(st *State, touched []Edge, vector func(*HChannel) []int64) map[core.ChannelID][]int64 {
	parts := make(map[core.ChannelID][]int64)
	for _, e := range touched {
		for _, r := range st.channelsOn(e) {
			if _, done := parts[r.Ch.ID]; done {
				continue
			}
			parts[r.Ch.ID] = vector(r.Ch)
		}
	}
	return parts
}

// partitionTouchedNew is partitionTouched for schemes whose vector
// depends only on the channel's own spec and route: only channels without
// one — the request's own new channels — get a vector, keeping
// incremental admission O(new channels) per request. Under such a scheme
// (HSDPS) a committed vector is never recomputed.
//
// It reads each touched edge's hops from the tail and stops at the first
// channel holding a vector. That finds every new channel because the
// channels without one form a suffix of every edge's list: an admission
// appends its new channels at the tail of every edge it touches, a
// removal keeps the order of the rest, and every committed channel holds
// a vector.
func partitionTouchedNew(st *State, touched []Edge, vector func(*HChannel) []int64) map[core.ChannelID][]int64 {
	parts := make(map[core.ChannelID][]int64)
	for _, e := range touched {
		refs := st.channelsOn(e)
		for k := len(refs) - 1; k >= 0 && len(refs[k].Ch.Hops) == 0; k-- {
			ch := refs[k].Ch
			if _, done := parts[ch.ID]; !done {
				parts[ch.ID] = vector(ch)
			}
		}
	}
	return parts
}

// PartitionTouched implements HDPS. The equal split depends
// only on the spec and hop count, so beyond the request's own new
// channels nothing can move.
func (h HSDPS) PartitionTouched(st *State, touched []Edge) map[core.ChannelID][]int64 {
	return partitionTouchedNew(st, touched, h.vectorOf)
}

// HADPS weights each hop's share by that directed edge's link load —
// ADPS generalized (on two-hop routes it reduces to ADPS up to rounding).
type HADPS struct{}

// Name implements HDPS.
func (HADPS) Name() string { return "H-ADPS" }

// vectorOf computes the load-weighted split of one channel — shared by
// the full and incremental paths so they agree bit for bit. Unicast
// chains use splitDeadline exactly as before; multicast trees use the
// tree recursion with per-edge link-load weights.
func (HADPS) vectorOf(st *State, ch *HChannel) []int64 {
	weights := st.k.HopLoads(ch, make([]int64, 0, len(ch.Route)))
	if ch.Multicast() {
		return splitDeadlineTree(ch, weights)
	}
	return splitDeadline(ch.Spec.D, ch.Spec.C, weights)
}

// Partition implements HDPS.
func (h HADPS) Partition(st *State) map[core.ChannelID][]int64 {
	parts := make(map[core.ChannelID][]int64, st.Len())
	for _, ch := range st.Channels() {
		parts[ch.ID] = h.vectorOf(st, ch)
	}
	return parts
}

// PartitionTouched implements HDPS. A channel's vector depends
// on the loads of its own route edges only, so after a mutation that
// touched an edge set, exactly the channels traversing those edges can
// move.
func (h HADPS) PartitionTouched(st *State, touched []Edge) map[core.ChannelID][]int64 {
	return partitionTouched(st, touched, func(ch *HChannel) []int64 {
		return h.vectorOf(st, ch)
	})
}

// splitDeadline distributes D over len(weights) hops proportionally to
// the weights, with every hop getting at least C, summing exactly to D.
// Requires D >= len(weights)*C (checked by admission). Deterministic.
func splitDeadline(d, c int64, weights []int64) []int64 {
	h := len(weights)
	out := make([]int64, h)
	var totalW int64
	for _, w := range weights {
		totalW += w
	}
	if totalW == 0 {
		totalW = int64(h)
		for i := range weights {
			weights[i] = 1
		}
	}
	var acc int64
	for i, w := range weights {
		share := d * w / totalW
		if share < c {
			share = c
		}
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
	return out
}

// splitDeadlineTree distributes D over the edges of a multicast tree so
// that every root→leaf path's budgets sum exactly to D and every edge
// gets at least C — the tree generalization of splitDeadline (to which
// it reduces on a chain, up to rounding). It recurses top-down: at an
// edge with remaining deadline R it splits R over the deepest
// descendant chain through that edge (weight-proportionally, via
// splitDeadline), keeps the chain's first share for itself, and hands
// R minus that share to every child subtree; a leaf edge absorbs all
// remaining deadline, which is what makes each path sum exact. Shared
// prefix edges are budgeted once — the whole point of tree admission.
// Requires D >= depth*C along every path (checked at validation) and
// Parents[i] < i. Deterministic.
func splitDeadlineTree(ch *HChannel, weights []int64) []int64 {
	n := len(ch.Route)
	children := make([][]int, n)
	root := 0
	for i := 0; i < n; i++ {
		if p := ch.parentOf(i); p < 0 {
			root = i
		} else {
			children[p] = append(children[p], i)
		}
	}
	// depth[i] is the longest chain length from edge i to a leaf,
	// inclusive; children have higher indices, so one reverse pass works.
	depth := make([]int, n)
	for i := n - 1; i >= 0; i-- {
		depth[i] = 1
		for _, c := range children[i] {
			if depth[c]+1 > depth[i] {
				depth[i] = depth[c] + 1
			}
		}
	}
	out := make([]int64, n)
	var assign func(e int, r int64)
	assign = func(e int, r int64) {
		if len(children[e]) == 0 {
			out[e] = r
			return
		}
		// Weight chain down the deepest descendant path (ties: first
		// child in edge order) — the path that constrains e's share most.
		chain := make([]int64, 0, depth[e])
		for cur := e; ; {
			chain = append(chain, weights[cur])
			if len(children[cur]) == 0 {
				break
			}
			best := children[cur][0]
			for _, c := range children[cur][1:] {
				if depth[c] > depth[best] {
					best = c
				}
			}
			cur = best
		}
		share := splitDeadline(r, ch.Spec.C, chain)[0]
		out[e] = share
		for _, c := range children[e] {
			assign(c, r-share)
		}
	}
	assign(root, ch.Spec.D)
	return out
}
