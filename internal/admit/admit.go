// Package admit is the generic copy-on-write admission kernel shared by
// the star (internal/core) and fabric (internal/topo) admission
// controllers. Both controllers implement the same paper algorithm — put
// every channel's per-link tasks on link pseudo-processors, repartition
// deadlines with a pluggable scheme, and verify EDF feasibility of every
// link whose task set changed — so the state bookkeeping (persistent
// per-link channel lists, task sets and exact utilization sums),
// the copy-on-write engine with undo-on-reject rollback and the
// changed-set tracking live here exactly once, generic over the link-key
// type K (core.Link or topo.Edge), the channel type Ch and the partition
// type P (a two-way split or a per-hop vector).
//
// The adapters keep what is genuinely theirs: spec validation, routing,
// the DPS/HDPS plug-in interfaces, and diagnostics wording.
package admit

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"

	"repro/internal/edf"
)

// ID is the network-unique RT channel identifier. It is 32 bits wide;
// an adapter whose frames carry fewer bits bounds it (Ops.MaxID), as the
// star does to the paper's 16-bit channel field. core.ChannelID is an
// alias of this type.
type ID uint32

// ref locates one hop of one channel on a link's task list: the channel's
// entry and the index of the link within the channel's traversed-links
// sequence (0 = first hop; on a star, 0 = uplink and 1 = downlink). The
// zero ref is a tombstone: the slot of a hop that was taken off the link
// and not yet compacted away (see State). Compaction renumbers a hop it
// moves through its entry, at e.pos[hop].
type ref[Ch any] struct {
	e   *entry[Ch]
	hop int
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
	// per Add; the kernel keeps only the keys' dense indices.
	Links func(Ch) []K
	// Task materializes the EDF task the channel induces on its hop-th
	// traversed link, under the channel's current partition. It must be
	// total: on a channel with no partition yet it returns a task with
	// D = 0 (Add stores it; the SetPart that follows overwrites it). Its
	// period is at least 1, so it is never the zero Task, which marks a
	// vacated slot (edf.Empty).
	Task func(ch Ch, hop int) edf.Task
	// Less is the deterministic verification order on link keys.
	Less func(a, b K) bool
	// Part snapshots the channel's current partition for the undo log,
	// reusing dst's storage (a partition the log recycles, or zero).
	Part func(ch Ch, dst P) P
	// SetPart installs a partition on the channel (cache invalidation is
	// the kernel's job; adapters must route all repartitioning through
	// State.SetPart).
	SetPart func(Ch, P)
	// HasPart reports whether the channel already holds exactly p.
	HasPart func(Ch, P) bool
	// Validate panics when p violates the partition conditions for ch —
	// a scheme implementation bug, not an admission rejection.
	Validate func(Ch, P)
	// Clone deep-copies a channel for State.Clone.
	Clone func(Ch) Ch
	// MaxID is the largest channel ID the adapter's frames can carry;
	// zero means the full 32 bits.
	MaxID ID
}

// entry is one channel plus its traversed-links sequence as dense link
// indices (idx[hop] is the index of Ops.Links(ch)[hop]), the position of
// each hop on its link's lists (byLink[idx[hop]][pos[hop]] is the hop,
// tasks[idx[hop]][pos[hop]] its task), the index of its slot in the
// establishment order, and the stamp of the last repartition walk that
// visited it (State.walk). Every ref of the channel points at its entry.
type entry[Ch any] struct {
	ch       Ch
	idx, pos []int32
	at       int
	seen     uint64
}

// State is the generic system state SS = {N, K}: the set of currently
// active channels together with the per-link bookkeeping the admission
// hot path depends on.
//
// Links live in a dense table. The Add that first names a link key
// interns it into an int32 index, which is never reused: a link drained
// to load 0 keeps its index and its history. Every per-link table is a
// slice over that index, so the hot path hashes no link key: byLink lists
// the channel hops traversing each link (in establishment order, the
// per-link restriction of the global order), tasks holds each link's EDF
// task set aligned slot for slot with byLink, utilSum keeps each link's
// exact utilization sum(C/P) as an edf.UtilSum — a numerator over the lcm
// of the link's periods in machine words, with a big.Rat fallback should
// a word overflow, so the running sum always equals a fresh summation —
// sums keeps each link's edf.Summary, whose Over is that sum's U > 1
// answer, and classes keeps each link's deadline-class table
// (edf.Classes), which the demand walk reads instead of the tasks.
//
// All are live. Add appends a hop's task, and SetPart overwrites it in
// place, patching the summary alongside. Remove leaves a tombstone at the
// position its channel entry records (a zero ref and the zero Task) and
// counts it in dead; the decision that removed the hop compacts the link
// once its dead slots pass 1/deadShare of its list, so renumbering costs
// O(1) per removal, amortized, and establishment order survives.
//
// A link's class table is built by the first walk of the link (it starts
// stale) and kept live from then on by Add, Remove and a patch that gives
// a placeholder (D = 0) its first partition or takes it back. A patch
// that moves a partitioned task to another (D, P) marks it stale instead,
// and the next walk rebuilds it: load-adaptive schemes move hundreds of
// tasks per decision and walk almost never, and a link that is never
// walked never pays for a table. So the verification sweep reads a link's
// summary and classes as they stand. The key type K stays the public
// vocabulary: methods taking a K look it up once.
//
// State is not safe for concurrent use; the surrounding controller
// serializes access.
type State[K comparable, Ch any, P any] struct {
	ops *Ops[K, Ch, P]

	channels map[ID]*entry[Ch]
	// order lists channel IDs in establishment order. A slot is live while
	// its channel's entry points back at it (entry.at): a removal leaves a
	// dead slot behind, dropped by compaction once over half are dead, and
	// a channel re-admitted under its ID (failure recovery, reconfigure)
	// takes a new slot at the end.
	order  []ID
	nextID ID

	// index interns link keys; keys inverts it. sorted holds every
	// interned index in Less order, kept sorted by insertion at intern
	// time so the read-locked queries (Links, MeanLinkUtilization) only
	// iterate it; rank inverts sorted, so the sweep orders links by Less
	// with integer compares. loaded counts the links with load > 0.
	index  map[K]int32
	keys   []K
	sorted []int32
	rank   []int32
	loaded int

	loads   []int
	byLink  [][]ref[Ch]
	tasks   [][]edf.Task
	dead    []int32 // tombstones in each link's lists
	classes []edf.Classes
	utilSum []edf.UtilSum
	// sums summarizes each link's task set for the verify sweep, which
	// decides most links from it without reading their tasks. Its shortest
	// period and deadline may be lower bounds (see edf.Summary); verdict
	// rescans a link's tasks when only loose bounds stand in the way.
	sums []edf.Summary

	// While a decision runs (begin, then end or abort), sumLog records each
	// link summary and class-table staleness as they were before the
	// decision first changed the link (sumSeen[i] == txn), so an abort
	// restores the summaries bit for bit and the class tables too: a table
	// stale before is marked stale again, and one live before that the
	// decision left stale is rebuilt, which gives the same table.
	// moved[i] == txn marks a link the running decision loaded a hop onto
	// or changed a hop's task on; the sweep tests no other (see Engine).
	txn     uint64
	inTxn   bool
	sumSeen []uint64
	sumLog  []sumSave
	moved   []uint64

	// walk stamps the channel entries a repartition walk has visited
	// (entry.seen == walk), so a channel crossing several touched links is
	// recomputed once.
	walk uint64
}

// sumSave is one link summary, and whether its class table was stale, as
// they stood before a decision changed the link.
type sumSave struct {
	i     int32
	s     edf.Summary
	stale bool
}

// deadShare sets when a link is compacted: once more than 1/deadShare of
// its slots are tombstones.
const deadShare = 4

// NewState returns an empty state speaking the given adapter vocabulary.
func NewState[K comparable, Ch any, P any](ops *Ops[K, Ch, P]) *State[K, Ch, P] {
	return &State[K, Ch, P]{
		ops:      ops,
		channels: make(map[ID]*entry[Ch]),
		nextID:   1,
		index:    make(map[K]int32),
	}
}

// intern returns the dense index of a link key, assigning the next one
// (and extending every per-link table) the first time the key is named.
func (st *State[K, Ch, P]) intern(l K) int32 {
	if i, ok := st.index[l]; ok {
		return i
	}
	i := int32(len(st.keys))
	st.index[l] = i
	st.keys = append(st.keys, l)
	st.loads = append(st.loads, 0)
	st.byLink = append(st.byLink, nil)
	st.tasks = append(st.tasks, nil)
	st.dead = append(st.dead, 0)
	st.classes = append(st.classes, edf.Classes{})
	st.classes[i].MarkStale() // built by the link's first walk
	st.utilSum = append(st.utilSum, edf.UtilSum{})
	st.sums = append(st.sums, edf.Summary{})
	st.sumSeen = append(st.sumSeen, 0)
	st.moved = append(st.moved, 0)
	pos := sort.Search(len(st.sorted), func(j int) bool { return st.ops.Less(l, st.keys[st.sorted[j]]) })
	for _, j := range st.sorted[pos:] {
		st.rank[j]++
	}
	st.sorted = slices.Insert(st.sorted, pos, i)
	st.rank = append(st.rank, int32(pos))
	return i
}

// begin starts a decision: summary changes are recorded for abort.
func (st *State[K, Ch, P]) begin() {
	st.txn++
	st.inTxn = true
	st.sumLog = st.sumLog[:0]
}

// saveSum records link i's summary and class-table staleness before the
// running decision first changes the link.
func (st *State[K, Ch, P]) saveSum(i int32) {
	if st.inTxn && st.sumSeen[i] != st.txn {
		st.sumSeen[i] = st.txn
		st.sumLog = append(st.sumLog, sumSave{i: i, s: st.sums[i], stale: st.classes[i].Stale()})
	}
}

// isMoved reports whether the running decision moved link i.
func (st *State[K, Ch, P]) isMoved(i int32) bool { return st.moved[i] == st.txn }

// end stops recording: the decision's summaries stand.
func (st *State[K, Ch, P]) end() { st.inTxn = false }

// abort restores every summary and class table the decision changed and
// stops recording. The task lists must stand as before the decision.
func (st *State[K, Ch, P]) abort() {
	for _, sv := range st.sumLog {
		st.sums[sv.i] = sv.s
		switch cs := &st.classes[sv.i]; {
		case sv.stale:
			cs.MarkStale()
		case cs.Stale():
			cs.Rebuild(st.tasks[sv.i])
		}
	}
	st.inTxn = false
}

// Len returns the number of active channels, size(K).
func (st *State[K, Ch, P]) Len() int { return len(st.channels) }

// Get returns the channel with the given ID, or the zero Ch (nil for
// pointer channel types).
func (st *State[K, Ch, P]) Get(id ID) Ch {
	if e := st.channels[id]; e != nil {
		return e.ch
	}
	var zero Ch
	return zero
}

// Has reports whether a channel with the given ID exists.
func (st *State[K, Ch, P]) Has(id ID) bool {
	_, ok := st.channels[id]
	return ok
}

// Channels returns the active channels in establishment order.
func (st *State[K, Ch, P]) Channels() []Ch {
	out := make([]Ch, 0, len(st.channels))
	for at, id := range st.order {
		if e := st.channels[id]; e != nil && e.at == at {
			out = append(out, e.ch)
		}
	}
	return out
}

// LinkLoad returns LL(l): the number of channels traversing the link.
func (st *State[K, Ch, P]) LinkLoad(l K) int {
	if i, ok := st.index[l]; ok {
		return st.loads[i]
	}
	return 0
}

// HopLoads appends LL of every link the channel traverses, in hop order,
// to dst: LinkLoad of each Ops.Links key. The channel must be active.
func (st *State[K, Ch, P]) HopLoads(ch Ch, dst []int64) []int64 {
	return st.hopLoads(st.channels[st.ops.ID(ch)], dst)
}

// hopLoads is HopLoads read through the entry's interned link indices.
func (st *State[K, Ch, P]) hopLoads(e *entry[Ch], dst []int64) []int64 {
	for _, i := range e.idx {
		dst = append(dst, int64(st.loads[i]))
	}
	return dst
}

// LoadedLinks returns the number of links with at least one channel,
// len(Links()) without listing them.
func (st *State[K, Ch, P]) LoadedLinks() int { return st.loaded }

// Links returns every link with at least one channel, in the
// deterministic verification order.
func (st *State[K, Ch, P]) Links() []K {
	out := make([]K, 0, st.loaded)
	for _, i := range st.sorted {
		if st.loads[i] > 0 {
			out = append(out, st.keys[i])
		}
	}
	return out
}

// NextID returns the next channel ID the allocator will try.
func (st *State[K, Ch, P]) NextID() ID { return st.nextID }

// SetNextID positions the ID allocator (snapshot restore, tests).
func (st *State[K, Ch, P]) SetNextID(id ID) { st.nextID = id }

// OrderLen returns the length of the internal insertion-order slice,
// including dead slots not yet compacted (tests).
func (st *State[K, Ch, P]) OrderLen() int { return len(st.order) }

// AllocID returns the next unused network-unique channel ID. IDs run
// from 1 to Ops.MaxID (0 is reserved as "unset": request frames carry
// 0) and wrap, skipping IDs still in use, so with few channels live an
// allocation past the wrap costs O(1) amortized. It panics when every ID
// is in use; Engine.Apply refuses such a decision first
// (ErrIDsExhausted).
func (st *State[K, Ch, P]) AllocID() ID {
	top := st.maxID()
	for range uint64(top) {
		id := st.nextID
		if id == 0 || id > top {
			id = 1
		}
		st.nextID = id + 1
		if _, used := st.channels[id]; !used {
			return id
		}
	}
	panic("admit: all RT channel IDs in use")
}

// maxID is the largest ID AllocID hands out.
func (st *State[K, Ch, P]) maxID() ID {
	if st.ops.MaxID == 0 {
		return math.MaxUint32
	}
	return st.ops.MaxID
}

// Add inserts a channel and updates link loads and per-link caches. The
// channel's ID must be unused.
func (st *State[K, Ch, P]) Add(ch Ch) { st.add(ch) }

// add is Add returning the channel's entry.
func (st *State[K, Ch, P]) add(ch Ch) *entry[Ch] {
	id := st.ops.ID(ch)
	if _, dup := st.channels[id]; dup {
		panic(fmt.Sprintf("admit: duplicate channel ID %d", id))
	}
	links := st.ops.Links(ch)
	n := len(links)
	buf := make([]int32, 2*n)
	e := &entry[Ch]{ch: ch, idx: buf[:n:n], pos: buf[n:], at: len(st.order)}
	for hop, l := range links {
		e.idx[hop] = st.intern(l)
	}
	st.channels[id] = e
	st.order = append(st.order, id)
	c, p := st.ops.UtilCP(ch)
	for hop, i := range e.idx {
		e.pos[hop] = int32(len(st.byLink[i]))
		st.byLink[i] = append(st.byLink[i], ref[Ch]{e: e, hop: hop})
		t := st.ops.Task(ch, hop)
		st.tasks[i] = append(st.tasks[i], t)
		st.load(i, t, c, p)
	}
	return e
}

// load accounts for task t just put on link i by a hop of a channel of
// capacity c and period p: the load, the utilization sum, the summary
// and the class table. The link counts as moved.
func (st *State[K, Ch, P]) load(i int32, t edf.Task, c, p int64) {
	st.moved[i] = st.txn
	if st.loads[i]++; st.loads[i] == 1 {
		st.loaded++
	}
	st.utilSum[i].Add(c, p)
	st.saveSum(i)
	st.sums[i].Add(t)
	st.sums[i].Over = st.utilSum[i].ExceedsOne()
	st.classes[i].Add(t)
}

// unload takes the channel hop at position j off link i: the last slot
// of the lists is dropped, any other one becomes a tombstone, so no other
// hop moves. Then it updates the load, the utilization sum, the summary
// and the class table. A removal does not move the link.
func (st *State[K, Ch, P]) unload(i, j int32, c, p int64) {
	refs, tasks := st.byLink[i], st.tasks[i]
	t := tasks[j]
	st.saveSum(i)
	st.sums[i].Remove(t)
	st.classes[i].Remove(t)
	refs[j], tasks[j] = ref[Ch]{}, edf.Task{}
	if int(j) == len(refs)-1 {
		st.byLink[i], st.tasks[i] = refs[:j], tasks[:j]
	} else {
		st.dead[i]++
	}
	if st.loads[i]--; st.loads[i] == 0 {
		st.loaded--
		st.utilSum[i] = edf.UtilSum{}
	} else {
		st.utilSum[i].Sub(c, p)
	}
	st.sums[i].Over = st.utilSum[i].ExceedsOne()
}

// UndoAdd reverses the most recent Add exactly: the channel must be the
// last one added and still present. Unlike Remove it restores the order
// slice verbatim, so a rolled-back tentative admission leaves no trace
// beyond the interned link indices, which are never reused anyway.
func (st *State[K, Ch, P]) UndoAdd(ch Ch) {
	id := st.ops.ID(ch)
	if e := st.channels[id]; e == nil || e.at != len(st.order)-1 {
		panic(fmt.Sprintf("admit: UndoAdd of channel %d out of order", id))
	}
	st.cut(id) // last on each of its links: every slot is dropped, none left dead
	st.order = st.order[:len(st.order)-1]
}

// Remove deletes a channel and updates link loads and per-link caches. It
// reports whether the channel existed.
func (st *State[K, Ch, P]) Remove(id ID) bool {
	if !st.Has(id) {
		return false
	}
	st.compact([]*entry[Ch]{st.cut(id)})
	return true
}

// cut takes an active channel off its links and out of the channel map,
// leaving its order slot dead, and returns its entry: restore puts it back
// exactly, and the entry's positions are where its hops were cut. Hops
// are cut last first, so a channel that was the last to load a link it
// crosses twice drops both slots rather than leaving one dead.
func (st *State[K, Ch, P]) cut(id ID) *entry[Ch] {
	e := st.channels[id]
	if e == nil {
		panic(fmt.Sprintf("admit: removal of unknown channel %d", id))
	}
	delete(st.channels, id)
	c, p := st.ops.UtilCP(e.ch)
	for hop := len(e.idx) - 1; hop >= 0; hop-- {
		st.unload(e.idx[hop], e.pos[hop], c, p)
	}
	return e
}

// restore reverses the cut that returned e: every hop goes back into the
// slot it was cut from, first hop first — its tombstone, or the end of a
// list the cut shortened — so the lists, tombstones and dead counts come
// back bit for bit, and the channel's order slot comes alive again. Cuts
// are restored in reverse order, and before the decision compacts
// anything.
func (st *State[K, Ch, P]) restore(e *entry[Ch]) {
	st.channels[st.ops.ID(e.ch)] = e
	c, p := st.ops.UtilCP(e.ch)
	for hop, i := range e.idx {
		j := e.pos[hop]
		r, t := ref[Ch]{e: e, hop: hop}, st.ops.Task(e.ch, hop)
		if int(j) == len(st.byLink[i]) {
			st.byLink[i] = append(st.byLink[i], r)
			st.tasks[i] = append(st.tasks[i], t)
		} else {
			st.byLink[i][j], st.tasks[i][j] = r, t
			st.dead[i]--
		}
		st.load(i, t, c, p)
	}
}

// compact reclaims what committed removals left dead: every link of a cut
// channel whose tombstones pass 1/deadShare of its slots loses them
// (compactLink), and the order slice drops its dead slots once over half
// are dead.
func (st *State[K, Ch, P]) compact(cuts []*entry[Ch]) {
	for _, e := range cuts {
		for _, i := range e.idx {
			if int(st.dead[i])*deadShare > len(st.byLink[i]) {
				st.compactLink(i)
			}
		}
	}
	if len(st.order) < 2*len(st.channels)+8 {
		return
	}
	kept := st.order[:0]
	for at, id := range st.order {
		if e := st.channels[id]; e != nil && e.at == at {
			e.at = len(kept)
			kept = append(kept, id)
		}
	}
	st.order = kept
}

// compactLink closes up link i's tombstones, keeping the order of its
// hops, and renumbers every hop it moves.
func (st *State[K, Ch, P]) compactLink(i int32) {
	refs, tasks := st.byLink[i], st.tasks[i]
	n := 0
	for j, r := range refs {
		if r.e == nil {
			continue
		}
		refs[n], tasks[n] = r, tasks[j]
		r.e.pos[r.hop] = int32(n)
		n++
	}
	clear(refs[n:])
	st.byLink[i], st.tasks[i], st.dead[i] = refs[:n], tasks[:n], 0
}

// SetPart installs a new partition on a channel and overwrites its tasks
// in place. All repartitioning goes through here, so the task table and
// the summaries can never go stale.
func (st *State[K, Ch, P]) SetPart(ch Ch, p P) { st.setPart(st.channels[st.ops.ID(ch)], p) }

// setPart is SetPart on the channel's entry. Only the links whose task
// changes count as moved (patch). A fresh channel's stored tasks are
// placeholders with D = 0, and a valid partition gives every hop
// D >= C >= 1, so it moves every link it loads.
func (st *State[K, Ch, P]) setPart(e *entry[Ch], p P) {
	st.ops.SetPart(e.ch, p)
	for hop, i := range e.idx {
		st.patch(i, e.pos[hop], st.ops.Task(e.ch, hop))
	}
}

// patch overwrites the task at slot j of link i, keeping its summary and
// class table; a changed task moves the link. A move between two
// partitioned (D, P) classes marks the table stale rather than keeping it.
func (st *State[K, Ch, P]) patch(i, j int32, t edf.Task) {
	slot := &st.tasks[i][j]
	if t == *slot {
		return
	}
	st.moved[i] = st.txn
	st.saveSum(i)
	st.sums[i].Replace(*slot, t)
	if cs := &st.classes[i]; !cs.Stale() {
		if slot.D != 0 && t.D != 0 {
			cs.MarkStale()
		} else {
			cs.Remove(*slot)
			cs.Add(t)
		}
	}
	*slot = t
}

// verdict answers link i's feasibility test from its summary when one of
// the test's early exits settles it, reporting whether it did. When only
// loose bounds stand in the way it rescans the link's tasks once (skipping
// tombstones), so an undecided link's summary is exact for the full test
// that follows, and reports the rescan.
func (st *State[K, Ch, P]) verdict(i int32) (res edf.Result, ok, rescanned bool) {
	s := &st.sums[i]
	res, ok = s.Decide()
	if !ok && s.Loose() {
		st.saveSum(i)
		s.Rescan(st.tasks[i])
		res, ok = s.Decide()
		rescanned = true
	}
	return res, ok, rescanned
}

// test runs the full feasibility test on link i from its summary and its
// class table, which the walk rebuilds first when it is stale (recorded
// for an abort, like a summary change).
func (st *State[K, Ch, P]) test(i int32, opts edf.Options, scratch *edf.Scratch) edf.Result {
	st.saveSum(i)
	return st.sums[i].Test(st.tasks[i], &st.classes[i], opts, scratch)
}

// utilization returns link i's utilization as edf.UtilizationFloat of its
// task set in establishment order, tombstones skipped, for reports.
func (st *State[K, Ch, P]) utilization(i int32) float64 {
	var u float64
	for _, t := range st.tasks[i] {
		if !edf.Empty(t) {
			u += float64(t.C) / float64(t.P)
		}
	}
	return u
}

// TasksOn returns a copy of the periodic task set of one link
// pseudo-processor in establishment order, without the tombstones of
// removed hops; nil for an unloaded link.
func (st *State[K, Ch, P]) TasksOn(l K) []edf.Task {
	if i, ok := st.index[l]; ok && st.loads[i] > 0 {
		return slices.DeleteFunc(slices.Clone(st.tasks[i]), edf.Empty)
	}
	return nil
}

// MeanLinkUtilization returns the mean of the per-link task-set
// utilizations over all loaded links, summed in Links() order — a coarse
// load metric used in reports. Returns 0 for an empty state.
func (st *State[K, Ch, P]) MeanLinkUtilization() float64 {
	if st.loaded == 0 {
		return 0
	}
	var sum float64
	for _, i := range st.sorted {
		if st.loads[i] > 0 {
			sum += st.utilization(i)
		}
	}
	return sum / float64(st.loaded)
}

// Clone returns a deep copy of the state sharing no mutable data with the
// original. Channels are copied through Ops.Clone so partitions can be
// changed on the copy without touching the original. The clone extends
// the original's link index: every interned link keeps its index.
func (st *State[K, Ch, P]) Clone() *State[K, Ch, P] {
	n := len(st.keys)
	cp := &State[K, Ch, P]{
		ops:      st.ops,
		channels: make(map[ID]*entry[Ch], len(st.channels)),
		order:    slices.Clone(st.order),
		nextID:   st.nextID,
		index:    maps.Clone(st.index),
		keys:     slices.Clone(st.keys),
		sorted:   slices.Clone(st.sorted),
		rank:     slices.Clone(st.rank),
		loaded:   st.loaded,
		loads:    slices.Clone(st.loads),
		byLink:   make([][]ref[Ch], n),
		tasks:    make([][]edf.Task, n),
		dead:     slices.Clone(st.dead),
		classes:  make([]edf.Classes, n),
		utilSum:  slices.Clone(st.utilSum),
		sums:     slices.Clone(st.sums),
		sumSeen:  make([]uint64, n),
		moved:    make([]uint64, n),
		walk:     st.walk,
	}
	for id, e := range st.channels {
		cp.channels[id] = &entry[Ch]{ch: st.ops.Clone(e.ch), idx: e.idx, pos: slices.Clone(e.pos), at: e.at, seen: e.seen}
	}
	for i, refs := range st.byLink {
		if len(refs) == 0 {
			continue
		}
		rs := make([]ref[Ch], len(refs))
		for j, r := range refs {
			if r.e != nil {
				rs[j] = ref[Ch]{e: cp.channels[st.ops.ID(r.e.ch)], hop: r.hop}
			}
		}
		cp.byLink[i] = rs
		cp.tasks[i] = slices.Clone(st.tasks[i])
	}
	for i := range st.classes {
		cp.classes[i] = st.classes[i].Clone()
	}
	return cp
}
