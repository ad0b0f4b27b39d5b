// Package admit is the generic copy-on-write admission kernel shared by
// the star (internal/core) and fabric (internal/topo) admission
// controllers. Both controllers implement the same paper algorithm — put
// every channel's per-link tasks on link pseudo-processors, repartition
// deadlines with a pluggable scheme, and verify EDF feasibility of every
// link whose task set changed — so the state bookkeeping (persistent
// per-link channel lists, task-set and exact rational utilization caches),
// the delta engine with undo-on-reject rollback, the changed-set tracking,
// and the clone-everything reference engine live here exactly once,
// generic over the link-key type K (core.Link or topo.Edge), the channel
// type Ch and the partition type P (a two-way split or a per-hop vector).
//
// The adapters keep what is genuinely theirs: spec validation, routing,
// the DPS/HDPS plug-in interfaces, and diagnostics wording.
package admit

import (
	"fmt"
	"math/big"
	"sort"

	"repro/internal/edf"
)

// ID is the network-unique RT channel identifier (32 bits on the wire
// schema; the simulated Ethernet frame format keeps the paper's 16-bit
// field and is only exercised by scenarios far below that ceiling).
// core.ChannelID is an alias of this type.
type ID uint32

// Ref locates one hop of one channel on a link's task list: the channel
// and the index of the link within the channel's traversed-links sequence
// (0 = first hop; on a star, 0 = uplink and 1 = downlink).
type Ref[Ch any] struct {
	Ch  Ch
	Hop int
}

// Ops is the adapter-supplied vocabulary the kernel manipulates channels
// through. All functions must be pure with respect to the kernel's
// bookkeeping: Links must be stable for the lifetime of the channel, and
// Task must depend only on the channel's spec and current partition.
type Ops[K comparable, Ch any, P any] struct {
	// ID returns the channel's identifier.
	ID func(Ch) ID
	// UtilCP returns the channel's per-period demand C and period P; every
	// traversed link carries C/P utilization.
	UtilCP func(Ch) (c, p int64)
	// Links returns the traversed link keys in route order. Called once
	// per Add; the kernel retains the slice, so it must not be mutated.
	Links func(Ch) []K
	// Task materializes the EDF task the channel induces on its hop-th
	// traversed link, under the channel's current partition.
	Task func(ch Ch, hop int) edf.Task
	// Less is the deterministic verification order on link keys.
	Less func(a, b K) bool
	// Part snapshots the channel's current partition for the undo log.
	Part func(Ch) P
	// SetPart installs a partition on the channel (cache invalidation is
	// the kernel's job; adapters must route all repartitioning through
	// State.SetPart).
	SetPart func(Ch, P)
	// HasPart reports whether the channel already holds exactly p.
	HasPart func(Ch, P) bool
	// Validate panics when p violates the partition conditions for ch —
	// a scheme implementation bug, not an admission rejection.
	Validate func(Ch, P)
	// Clone deep-copies a channel for the clone-based reference engine.
	Clone func(Ch) Ch
}

var ratOne = big.NewRat(1, 1)

// entry is one channel plus its cached traversed-links sequence.
type entry[K comparable, Ch any] struct {
	ch    Ch
	links []K
}

// State is the generic system state SS = {N, K}: the set of currently
// active channels together with the per-link bookkeeping the admission
// hot path depends on. byLink maps every loaded link to the channel hops
// traversing it (in establishment order, the per-link restriction of the
// global order), taskCache memoizes each link's EDF task set, and utilSum
// keeps each link's exact rational utilization sum(C/P) — rational
// arithmetic is exact, so the running sum always equals a fresh summation
// bit for bit. All three are maintained incrementally by
// Add/Remove/SetPart, so TasksShared and the verification sweep never
// scan the full channel map.
//
// State is not safe for concurrent use; the surrounding controller
// serializes access.
type State[K comparable, Ch any, P any] struct {
	ops *Ops[K, Ch, P]

	channels map[ID]entry[K, Ch]
	order    []ID // insertion order, for deterministic iteration
	// stale holds IDs of removed channels whose order entry has not been
	// compacted away yet. Add consults it so that re-admitting a channel
	// under its kept ID (failure recovery) purges the old entry instead
	// of double-listing the channel in Channels().
	stale  map[ID]bool
	loads  map[K]int
	nextID ID

	byLink    map[K][]Ref[Ch]
	taskCache map[K][]edf.Task
	utilSum   map[K]*big.Rat
	// utilOver caches the exact U > 1 answer per link, refreshed whenever
	// utilSum changes — the verify sweep reads a bool instead of paying a
	// big.Rat comparison (which allocates) per link per sweep.
	utilOver map[K]bool

	// gens assigns every loaded link a generation stamp: the value of the
	// monotone genCtr at the moment the link's task-set CONTENT last
	// changed. Add/UndoAdd/Remove/SetPart bump every affected link;
	// SetPartDiff bumps only links whose materialized task actually
	// differs, which is what lets the engine's feasibility-verdict cache
	// skip links a repartition pass touched but did not move. genCtr is
	// never rolled back (an undo bumps again rather than restoring), so a
	// generation value is never reused for different content — the
	// soundness invariant the verdict cache rests on.
	genCtr uint64
	gens   map[K]uint64

	// oldTasks and diffLinks are scratch buffers for SetPartDiff.
	oldTasks  []edf.Task
	diffLinks []K
}

// NewState returns an empty state speaking the given adapter vocabulary.
func NewState[K comparable, Ch any, P any](ops *Ops[K, Ch, P]) *State[K, Ch, P] {
	return &State[K, Ch, P]{
		ops:       ops,
		channels:  make(map[ID]entry[K, Ch]),
		stale:     make(map[ID]bool),
		loads:     make(map[K]int),
		nextID:    1,
		byLink:    make(map[K][]Ref[Ch]),
		taskCache: make(map[K][]edf.Task),
		utilSum:   make(map[K]*big.Rat),
		utilOver:  make(map[K]bool),
		gens:      make(map[K]uint64),
	}
}

// bumpGen stamps a link with a fresh generation: its task-set content
// (set membership or task parameters) just changed.
func (st *State[K, Ch, P]) bumpGen(l K) {
	st.genCtr++
	st.gens[l] = st.genCtr
}

// Gen returns the link's current task-set generation stamp.
func (st *State[K, Ch, P]) Gen(l K) uint64 { return st.gens[l] }

// Len returns the number of active channels, size(K).
func (st *State[K, Ch, P]) Len() int { return len(st.channels) }

// Get returns the channel with the given ID, or the zero Ch (nil for
// pointer channel types).
func (st *State[K, Ch, P]) Get(id ID) Ch { return st.channels[id].ch }

// Has reports whether a channel with the given ID exists.
func (st *State[K, Ch, P]) Has(id ID) bool {
	_, ok := st.channels[id]
	return ok
}

// Channels returns the active channels in establishment order.
func (st *State[K, Ch, P]) Channels() []Ch {
	out := make([]Ch, 0, len(st.order))
	for _, id := range st.order {
		if e, ok := st.channels[id]; ok {
			out = append(out, e.ch)
		}
	}
	return out
}

// ChannelsOn returns the channel hops traversing a link in establishment
// order. The returned slice is the live cache — callers must not mutate
// or retain it.
func (st *State[K, Ch, P]) ChannelsOn(l K) []Ref[Ch] { return st.byLink[l] }

// LinkLoad returns LL(l): the number of channels traversing the link.
func (st *State[K, Ch, P]) LinkLoad(l K) int { return st.loads[l] }

// LoadedLinks returns the number of links with at least one channel,
// len(Links()) without listing and sorting them.
func (st *State[K, Ch, P]) LoadedLinks() int { return len(st.loads) }

// Links returns every link with at least one channel, in the
// deterministic verification order.
func (st *State[K, Ch, P]) Links() []K {
	out := make([]K, 0, len(st.loads))
	for l := range st.loads {
		out = append(out, l)
	}
	st.sortLinks(out)
	return out
}

func (st *State[K, Ch, P]) sortLinks(ls []K) {
	sort.Slice(ls, func(i, j int) bool { return st.ops.Less(ls[i], ls[j]) })
}

// NextID returns the next channel ID the allocator will try.
func (st *State[K, Ch, P]) NextID() ID { return st.nextID }

// SetNextID positions the ID allocator (snapshot restore, tests).
func (st *State[K, Ch, P]) SetNextID(id ID) { st.nextID = id }

// OrderLen returns the length of the internal insertion-order slice,
// including tombstones not yet compacted (tests).
func (st *State[K, Ch, P]) OrderLen() int { return len(st.order) }

// AllocID returns the next unused network-unique channel ID. IDs wrap at
// 32 bits (the width of the RT channel ID field on the wire schema);
// AllocID skips IDs still in use. It panics when all 2^32-1 IDs are
// active, which a real switch could not handle either.
func (st *State[K, Ch, P]) AllocID() ID {
	for i := uint64(0); i < 1<<32; i++ {
		id := st.nextID
		st.nextID++
		if st.nextID == 0 { // reserve 0 as "unset" (request frames carry 0)
			st.nextID = 1
		}
		if _, used := st.channels[id]; !used && id != 0 {
			return id
		}
	}
	panic("admit: all RT channel IDs in use")
}

// Add inserts a channel and updates link loads and per-link caches. The
// channel's ID must be unused.
func (st *State[K, Ch, P]) Add(ch Ch) {
	id := st.ops.ID(ch)
	if _, dup := st.channels[id]; dup {
		panic(fmt.Sprintf("admit: duplicate channel ID %d", id))
	}
	if st.stale[id] {
		// The channel lived before under this ID and its order entry is
		// still pending compaction — purge it, or the entry would come
		// alive again and Channels() would list the channel twice.
		for i, oid := range st.order {
			if oid == id {
				st.order = append(st.order[:i], st.order[i+1:]...)
				break
			}
		}
		delete(st.stale, id)
	}
	links := st.ops.Links(ch)
	st.channels[id] = entry[K, Ch]{ch: ch, links: links}
	st.order = append(st.order, id)
	c, p := st.ops.UtilCP(ch)
	for hop, l := range links {
		st.loads[l]++
		st.byLink[l] = append(st.byLink[l], Ref[Ch]{Ch: ch, Hop: hop})
		delete(st.taskCache, l)
		st.bumpGen(l)
		st.addUtil(l, c, p)
	}
}

// addUtil folds one channel's C/P into a link's running utilization sum.
func (st *State[K, Ch, P]) addUtil(l K, c, p int64) {
	u := st.utilSum[l]
	if u == nil {
		u = new(big.Rat)
		st.utilSum[l] = u
	}
	u.Add(u, new(big.Rat).SetFrac64(c, p))
	st.utilOver[l] = u.Cmp(ratOne) > 0
}

// subUtil removes one channel's C/P from a link's running sum, dropping
// the entry when the link is no longer loaded.
func (st *State[K, Ch, P]) subUtil(l K, c, p int64) {
	if st.loads[l] == 0 {
		delete(st.utilSum, l)
		delete(st.utilOver, l)
		return
	}
	if u := st.utilSum[l]; u != nil {
		u.Sub(u, new(big.Rat).SetFrac64(c, p))
		st.utilOver[l] = u.Cmp(ratOne) > 0
	}
}

// UtilExceedsOne reports the exact first-constraint answer (U > 1) for a
// link from the incrementally maintained sum.
func (st *State[K, Ch, P]) UtilExceedsOne(l K) bool {
	return st.utilOver[l]
}

// UndoAdd reverses the most recent Add exactly: the channel must be the
// last one added and still present. Unlike Remove it restores the order
// slice verbatim, so a rolled-back tentative admission leaves no trace.
func (st *State[K, Ch, P]) UndoAdd(ch Ch) {
	id := st.ops.ID(ch)
	if len(st.order) == 0 || st.order[len(st.order)-1] != id {
		panic(fmt.Sprintf("admit: UndoAdd of channel %d out of order", id))
	}
	e := st.channels[id]
	delete(st.channels, id)
	st.order = st.order[:len(st.order)-1]
	c, p := st.ops.UtilCP(ch)
	for _, l := range e.links {
		if st.loads[l]--; st.loads[l] == 0 {
			delete(st.loads, l)
		}
		refs := st.byLink[l]
		if len(refs) == 1 {
			delete(st.byLink, l)
		} else {
			st.byLink[l] = refs[:len(refs)-1]
		}
		delete(st.taskCache, l)
		st.bumpGen(l)
		st.subUtil(l, c, p)
	}
}

// Remove deletes a channel and updates link loads and per-link caches. It
// reports whether the channel existed.
func (st *State[K, Ch, P]) Remove(id ID) bool {
	e, ok := st.channels[id]
	if !ok {
		return false
	}
	delete(st.channels, id)
	c, p := st.ops.UtilCP(e.ch)
	for _, l := range e.links {
		if st.loads[l]--; st.loads[l] == 0 {
			delete(st.loads, l)
		}
		refs := st.byLink[l]
		kept := refs[:0]
		for _, r := range refs {
			if st.ops.ID(r.Ch) != id {
				kept = append(kept, r)
			}
		}
		if len(kept) == 0 {
			delete(st.byLink, l)
		} else {
			st.byLink[l] = kept
		}
		delete(st.taskCache, l)
		st.bumpGen(l)
		st.subUtil(l, c, p)
	}
	// Compact the order slice lazily: rebuild when over half are gone.
	st.stale[id] = true
	if len(st.order) >= 2*len(st.channels)+8 {
		kept := st.order[:0]
		for _, oid := range st.order {
			if _, alive := st.channels[oid]; alive {
				kept = append(kept, oid)
			}
		}
		st.order = kept
		clear(st.stale)
	}
	return true
}

// SetPart installs a new partition on a channel and invalidates the task
// caches (and generation stamps) of all its links, whether or not the new
// partition actually moves them. All repartitioning goes through here or
// SetPartDiff so the caches can never go stale.
func (st *State[K, Ch, P]) SetPart(ch Ch, p P) {
	st.ops.SetPart(ch, p)
	for _, l := range st.channels[st.ops.ID(ch)].links {
		delete(st.taskCache, l)
		st.bumpGen(l)
	}
}

// SetPartDiff installs a new partition on a channel that already holds a
// valid one and invalidates only the links whose materialized EDF task
// actually changed, leaving the task cache and generation stamp of
// content-stable links intact. A repartition pass frequently recomputes
// identical deadline budgets for most hops (the scheme is a function of
// per-link load, and most loads did not change); keeping their
// generations lets the engine's verdict cache skip re-sweeping them.
//
// The returned slice lists the content-changed links in hop order; it is
// a scratch buffer invalidated by the next SetPartDiff call. The channel
// MUST already hold a partition under which Ops.Task is well-defined for
// every hop — use SetPart for freshly constructed channels.
func (st *State[K, Ch, P]) SetPartDiff(ch Ch, p P) []K {
	links := st.channels[st.ops.ID(ch)].links
	old := st.oldTasks[:0]
	for hop := range links {
		old = append(old, st.ops.Task(ch, hop))
	}
	st.oldTasks = old
	st.ops.SetPart(ch, p)
	diff := st.diffLinks[:0]
	for hop, l := range links {
		if st.ops.Task(ch, hop) != old[hop] {
			delete(st.taskCache, l)
			st.bumpGen(l)
			diff = append(diff, l)
		}
	}
	st.diffLinks = diff
	return diff
}

// LinksOf returns the cached traversed-links sequence of an active
// channel. The returned slice must not be mutated.
func (st *State[K, Ch, P]) LinksOf(ch Ch) []K {
	return st.channels[st.ops.ID(ch)].links
}

// TasksOn derives the periodic task set of one link pseudo-processor. The
// returned slice is freshly allocated; the internal cache backing it is
// maintained incrementally.
func (st *State[K, Ch, P]) TasksOn(l K) []edf.Task {
	cached := st.TasksShared(l)
	if cached == nil {
		return nil
	}
	return append([]edf.Task(nil), cached...)
}

// TasksShared returns the memoized task set of a link, rebuilding it from
// the per-link channel list when stale. The returned slice is shared —
// internal read-only callers (the feasibility test) use it to avoid the
// defensive copy TasksOn makes.
func (st *State[K, Ch, P]) TasksShared(l K) []edf.Task {
	if tasks, ok := st.taskCache[l]; ok {
		return tasks
	}
	refs := st.byLink[l]
	if len(refs) == 0 {
		return nil
	}
	tasks := make([]edf.Task, 0, len(refs))
	for _, r := range refs {
		tasks = append(tasks, st.ops.Task(r.Ch, r.Hop))
	}
	st.taskCache[l] = tasks
	return tasks
}

// MeanLinkUtilization returns the mean of the per-link task-set
// utilizations over all loaded links — a coarse load metric used in
// reports. Returns 0 for an empty state.
//
// The sum is taken directly over the per-link channel lists (same order,
// bit-identical to edf.UtilizationFloat over the link's task set) rather
// than through the lazy task cache, so this query never mutates the
// state — rtether.Network serves it under a read lock.
func (st *State[K, Ch, P]) MeanLinkUtilization() float64 {
	links := st.Links()
	if len(links) == 0 {
		return 0
	}
	var sum float64
	for _, l := range links {
		var u float64
		for _, r := range st.byLink[l] {
			c, p := st.ops.UtilCP(r.Ch)
			u += float64(c) / float64(p)
		}
		sum += u
	}
	return sum / float64(len(links))
}

// Clone returns a deep copy of the state sharing no mutable data with the
// original. Channels are copied through Ops.Clone so tentative partitions
// can be applied without touching the committed state; the task cache
// starts empty and is rebuilt lazily.
func (st *State[K, Ch, P]) Clone() *State[K, Ch, P] {
	cp := &State[K, Ch, P]{
		ops:       st.ops,
		channels:  make(map[ID]entry[K, Ch], len(st.channels)),
		order:     append([]ID(nil), st.order...),
		stale:     make(map[ID]bool, len(st.stale)),
		loads:     make(map[K]int, len(st.loads)),
		nextID:    st.nextID,
		byLink:    make(map[K][]Ref[Ch], len(st.byLink)),
		taskCache: make(map[K][]edf.Task),
		utilSum:   make(map[K]*big.Rat, len(st.utilSum)),
		utilOver:  make(map[K]bool, len(st.utilOver)),
		genCtr:    st.genCtr,
		gens:      make(map[K]uint64, len(st.gens)),
	}
	for l, g := range st.gens {
		cp.gens[l] = g
	}
	for id := range st.stale {
		cp.stale[id] = true
	}
	for id, e := range st.channels {
		cp.channels[id] = entry[K, Ch]{ch: st.ops.Clone(e.ch), links: e.links}
	}
	for l, n := range st.loads {
		cp.loads[l] = n
	}
	for l, refs := range st.byLink {
		rs := make([]Ref[Ch], len(refs))
		for i, r := range refs {
			rs[i] = Ref[Ch]{Ch: cp.channels[st.ops.ID(r.Ch)].ch, Hop: r.Hop}
		}
		cp.byLink[l] = rs
	}
	for l, u := range st.utilSum {
		cp.utilSum[l] = new(big.Rat).Set(u)
	}
	for l, over := range st.utilOver {
		cp.utilOver[l] = over
	}
	return cp
}
