package admit

import (
	"cmp"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/edf"
)

// Rejection reports which link failed the admission test and why. The
// adapters wrap it into their public error types (core.RejectionError,
// topo.RejectionError).
type Rejection[K comparable] struct {
	Link   K
	Result edf.Result
}

// Scheme is one deadline partitioning scheme as the kernel sees it: a
// full-state partition function (the reference engine's view) and,
// optionally, an incremental one. A nil PartitionTouched marks the scheme
// non-incremental, forcing the clone-based reference engine.
//
// PartitionTouched must obey the incremental contract: for each returned
// channel the value must equal what Partition would return on the same
// state, and every channel omitted must already hold exactly that value.
type Scheme[K comparable, Ch any, P any] struct {
	Partition        func(st *State[K, Ch, P]) map[ID]P
	PartitionTouched func(st *State[K, Ch, P], touched []K) map[ID]P
}

// Config tunes an Engine.
type Config struct {
	// Feasibility passes through to the per-link EDF test.
	Feasibility edf.Options
	// FullRecheck forces every loaded link to be re-verified on each
	// mutation and disables the copy-on-write engine — the
	// ablation/belt-and-braces reference mode. It also disables the
	// feasibility-verdict cache.
	FullRecheck bool
	// NoSweepCache disables the generation-keyed feasibility-verdict
	// cache, forcing every swept link through the full EDF test. Decisions
	// are identical with the cache on or off (the equivalence replays pin
	// this); the switch exists for ablation benchmarks and as a
	// belt-and-braces escape hatch.
	NoSweepCache bool
	// Workers bounds the verification worker pool; 0 means
	// runtime.GOMAXPROCS(0), 1 forces the sequential sweep. Decisions,
	// diagnostics and the LinksChecked accounting are identical for every
	// worker count.
	Workers int
}

// minParallelLinks is the sweep size below which verification stays
// sequential: spawning workers for the one-or-two changed links of a
// single establishment (or the handful of hops of one routed channel)
// costs more than the tests themselves.
const minParallelLinks = 8

// Engine owns a State and runs admission decisions against it: the
// copy-on-write delta engine when every scheme is incremental, the
// clone-everything reference engine otherwise. Both make bit-identical
// decisions; the equivalence is proven by the adapters' replay suites.
//
// Engine is not safe for concurrent use (the verification worker pool is
// internal to a single decision); the public rtether.Network serializes
// access.
type Engine[K comparable, Ch any, P any] struct {
	ops     *Ops[K, Ch, P]
	cfg     Config
	workers int
	state   *State[K, Ch, P]

	linksChecked  int
	repartitions  int
	repartitioned []ID

	// staleParts holds the channels whose committed partition was kept
	// back by a Release whose repartition failed verification. Their
	// vectors differ from what the scheme's Partition would compute, so
	// the incremental engine folds their links into every later touched
	// set — the clone engine's full Partition pass heals them implicitly,
	// and decision equivalence requires the delta engine to do the same.
	staleParts map[ID]struct{}

	// The per-link tables below are slices over the state's dense link
	// index (see State), grown by fit as the state interns links.
	//
	// Feasibility-verdict cache: feasGen[i] is the generation stamp at
	// which link i was last PROVEN feasible (0: never). A sweep skips
	// any link whose current generation still equals its proven one — the
	// link's task-set content has not changed, so the cached verdict
	// stands. The cache is consulted and updated only for sweeps over the
	// live committed state (st == e.state): tentative clones fork the
	// generation counter, so verdicts recorded against a discarded clone
	// could collide with later live generations. Generation stamps are
	// never reused for different content (State.bumpGen is monotone and
	// undo bumps again rather than restoring), which makes a stamp match
	// a sound proof of content equality.
	cacheOn    bool
	feasGen    []uint64
	sweepSkips int

	// sweepNs accumulates wall time spent inside verification sweeps
	// (sequential or parallel, cache hits included). It is observability
	// accounting only — never part of a decision — so unlike the
	// deterministic counters above it varies run to run.
	sweepNs int64

	// slackHist[i] is the MinSlack (tightest demand-criterion margin) the
	// link showed at its most recent COMMITTED sweep, noSlack before any.
	// Sweeps visit links in ascending recorded slack — historically
	// tightest first, unswept links first of all — so an
	// infeasible repartition fails as early as possible. Only committed
	// sweeps update the history: every engine flavor (delta, clone,
	// FullRecheck, cache on or off) then holds bit-identical histories
	// after identical decision sequences, which keeps the sweep order —
	// and therefore the named rejection link — identical across them.
	slackHist []int64

	// Link sets (the touched set a repartition covers, the changed set a
	// sweep verifies) are epoch-stamped marks: marks[i] == epoch means
	// link i is in the set being built. Starting a set is one increment,
	// with no map and no clearing pass.
	marks []uint64
	epoch uint64

	// Reusable sweep buffers: with these plus the per-worker Scratch
	// arenas the steady-state sequential verify sweep allocates nothing.
	scratch       edf.Scratch
	workerScratch []edf.Scratch
	touchIdx      []int32
	touchKeys     []K
	sweepLinks    []int32
	sweepSkip     []bool
	sweepResults  []edf.Result
	sweepOK       int // feasible prefix length of the last sweep
	freshIDs      map[ID]struct{}
}

// NewEngine returns an engine over an empty state.
func NewEngine[K comparable, Ch any, P any](ops *Ops[K, Ch, P], cfg Config) *Engine[K, Ch, P] {
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Engine[K, Ch, P]{
		ops:           ops,
		cfg:           cfg,
		workers:       workers,
		state:         NewState(ops),
		staleParts:    make(map[ID]struct{}),
		cacheOn:       !cfg.FullRecheck && !cfg.NoSweepCache,
		workerScratch: make([]edf.Scratch, workers),
		freshIDs:      make(map[ID]struct{}),
	}
}

// State returns the live committed state. Callers must treat it as
// read-only.
func (e *Engine[K, Ch, P]) State() *State[K, Ch, P] { return e.state }

// ReplaceState swaps in a state assembled elsewhere (snapshot restore).
// Every per-link table is reset: link indices, like the verdict cache's
// generations, belong to one state.
func (e *Engine[K, Ch, P]) ReplaceState(st *State[K, Ch, P]) {
	e.state = st
	e.feasGen = e.feasGen[:0]
	e.slackHist = e.slackHist[:0]
	e.marks = e.marks[:0]
}

// noSlack is the slack history of a link no committed sweep has tested:
// below every real slack, so such links sweep first.
const noSlack = math.MinInt64

// fit grows the per-link tables to cover every link st has interned. A
// tentative clone extends the live state's index, so the tables stay
// valid for it and for the live state it may replace.
func (e *Engine[K, Ch, P]) fit(st *State[K, Ch, P]) {
	for len(e.feasGen) < len(st.keys) {
		e.feasGen = append(e.feasGen, 0)
		e.slackHist = append(e.slackHist, noSlack)
		e.marks = append(e.marks, 0)
	}
}

// newSet starts an empty link set over st's index space.
func (e *Engine[K, Ch, P]) newSet(st *State[K, Ch, P]) {
	e.fit(st)
	e.epoch++
}

// addToSet appends to set each link of idx not yet in the current set,
// preserving first-occurrence order. A batch of thousands of channels
// names the same few trunk links over and over; listing each link once
// keeps the incremental repartition O(sum of link loads) rather than
// O(batch x load), and the sweep from testing a link twice.
func (e *Engine[K, Ch, P]) addToSet(set, idx []int32) []int32 {
	for _, i := range idx {
		if e.marks[i] != e.epoch {
			e.marks[i] = e.epoch
			set = append(set, i)
		}
	}
	return set
}

// LinksChecked returns the cumulative number of per-link feasibility
// tests the engine accounts for. The count is deterministic and
// independent of the worker count and of the verdict cache: a cache hit
// counts as a check (the cached verdict answers the same question), so
// cached and uncached engines report identical counts.
func (e *Engine[K, Ch, P]) LinksChecked() int { return e.linksChecked }

// SweepSkips returns the cumulative number of per-link feasibility tests
// the verdict cache answered without running the EDF analysis.
func (e *Engine[K, Ch, P]) SweepSkips() int { return e.sweepSkips }

// SweepNs returns the cumulative wall-clock nanoseconds spent in
// verification sweeps. Unlike LinksChecked this is measured, not
// deterministic; it exists for the observability surface
// (rtether.AdmissionStats, /metrics), never for decisions.
func (e *Engine[K, Ch, P]) SweepNs() int64 { return e.sweepNs }

// Repartitions returns the cumulative number of repartition passes the
// engine has run: one per scheme attempted per admission decision (an
// Admit covering a whole batch counts once per scheme, which is what
// makes batch admission scale) plus one per Release that repartitioned
// the remaining channels. The count is deterministic and identical for
// the delta and clone engines.
func (e *Engine[K, Ch, P]) Repartitions() int { return e.repartitions }

// Repartitioned returns the IDs (ascending) of the channels whose
// partitions changed in the last successful Admit or Release —
// establishments include the new channels. The slice is invalidated by
// the next mutation.
func (e *Engine[K, Ch, P]) Repartitioned() []ID { return e.repartitioned }

// incremental reports whether the copy-on-write engine may run: every
// scheme must be incremental and FullRecheck (which wants to see the
// whole tentative state) must be off.
func (e *Engine[K, Ch, P]) incremental(schemes []Scheme[K, Ch, P]) bool {
	if e.cfg.FullRecheck {
		return false
	}
	for _, s := range schemes {
		if s.PartitionTouched == nil {
			return false
		}
	}
	return true
}

// Admit runs one admission decision for a batch of n new channels:
// mk(i, id) constructs the i-th channel with its allocated ID (the
// adapter has validated and routed the specs already). The schemes are
// tried in order — the paper's fallback search — and the first whose
// tentative system passes verification commits. On rejection the
// committed state is untouched (bit for bit, including the ID allocator)
// and the first scheme's rejection is returned.
func (e *Engine[K, Ch, P]) Admit(n int, mk func(i int, id ID) Ch, schemes []Scheme[K, Ch, P]) ([]Ch, *Rejection[K]) {
	if e.incremental(schemes) {
		return e.admitDelta(n, mk, schemes)
	}
	return e.admitClone(n, mk, schemes)
}

// admitClone is the clone-based reference engine: build a full tentative
// copy of the state per scheme, repartition everything, verify, and swap
// the state pointer on acceptance. It remains the reference path for
// FullRecheck mode and for custom non-incremental scheme implementations.
func (e *Engine[K, Ch, P]) admitClone(n int, mk func(i int, id ID) Ch, schemes []Scheme[K, Ch, P]) ([]Ch, *Rejection[K]) {
	var firstRej *Rejection[K]
	for _, scheme := range schemes {
		tentative := e.state.Clone()
		chs := make([]Ch, n)
		clear(e.freshIDs)
		for i := 0; i < n; i++ {
			ch := mk(i, tentative.AllocID())
			tentative.Add(ch)
			chs[i] = ch
			e.freshIDs[e.ops.ID(ch)] = struct{}{}
		}

		e.repartitions++
		parts := scheme.Partition(tentative)
		changed, changedIDs := e.apply(tentative, parts, e.freshIDs)

		rej := e.verify(tentative, changed)
		if rej == nil {
			e.state = tentative
			e.repartitioned = changedIDs
			clear(e.staleParts) // full Partition healed any kept-back vectors
			e.commitSlack()
			return chs, nil
		}
		if firstRej == nil {
			firstRej = rej
		}
	}
	return nil, firstRej
}

// admitDelta is the copy-on-write engine: mutate the live state
// tentatively (add the channels, repartition only what the scheme says
// can have moved), verify only the changed links, and roll everything
// back on rejection. The ID allocator is restored too, so a rejected
// request leaves no observable trace — decisions and committed states
// are bit-identical to admitClone.
func (e *Engine[K, Ch, P]) admitDelta(n int, mk func(i int, id ID) Ch, schemes []Scheme[K, Ch, P]) ([]Ch, *Rejection[K]) {
	var firstRej *Rejection[K]
	for _, scheme := range schemes {
		savedNext := e.state.nextID
		chs := make([]Ch, n)
		clear(e.freshIDs)
		for i := 0; i < n; i++ {
			ch := mk(i, e.state.AllocID())
			e.state.Add(ch)
			chs[i] = ch
			e.freshIDs[e.ops.ID(ch)] = struct{}{}
		}
		e.newSet(e.state)
		e.touchIdx = e.touchIdx[:0]
		for _, ch := range chs {
			e.touchIdx = e.addToSet(e.touchIdx, e.state.channels[e.ops.ID(ch)].idx)
		}
		touched := e.touchedKeys()

		e.repartitions++
		parts := scheme.PartitionTouched(e.state, touched)
		undo, changed, changedIDs := e.applyDelta(e.state, parts, e.freshIDs)

		rej := e.verify(e.state, changed)
		if rej == nil {
			e.repartitioned = changedIDs
			clear(e.staleParts) // touched covered every stale channel; all healed
			e.commitSlack()
			return chs, nil
		}
		e.rollback(e.state, undo)
		for i := n - 1; i >= 0; i-- {
			e.state.UndoAdd(chs[i])
		}
		e.state.nextID = savedNext
		if firstRej == nil {
			firstRej = rej
		}
	}
	return nil, firstRej
}

// Release tears down a channel. The remaining channels are repartitioned
// (a scheme is a function of the system state); in the unlikely event
// that repartitioning a smaller system makes some link infeasible, the
// previous partitions are kept — removing load can never invalidate the
// schedule under unchanged partitions. Kept-back channels are recorded
// as stale so later incremental decisions widen their touched sets to
// match the reference engine (see staleParts). It reports whether the
// channel existed.
func (e *Engine[K, Ch, P]) Release(id ID, scheme Scheme[K, Ch, P]) bool {
	entry, ok := e.state.channels[id]
	if !ok {
		return false
	}
	if scheme.PartitionTouched != nil && !e.cfg.FullRecheck {
		e.state.Remove(id)
		delete(e.staleParts, id)
		e.newSet(e.state)
		e.touchIdx = e.addToSet(e.touchIdx[:0], entry.idx)
		touched := e.touchedKeys()
		e.repartitions++
		parts := scheme.PartitionTouched(e.state, touched)
		undo, changed, changedIDs := e.applyDelta(e.state, parts, nil)
		if rej := e.verify(e.state, changed); rej != nil {
			e.rollback(e.state, undo)
			e.markStale(changedIDs)
			changedIDs = nil
		} else {
			clear(e.staleParts)
			e.commitSlack()
		}
		e.repartitioned = changedIDs
		return true
	}

	next := e.state.Clone()
	next.Remove(id)

	repart := next.Clone()
	e.repartitions++
	parts := scheme.Partition(repart)
	changed, changedIDs := e.apply(repart, parts, nil)
	if rej := e.verify(repart, changed); rej == nil {
		e.state = repart
		e.repartitioned = changedIDs
		clear(e.staleParts)
		e.commitSlack()
	} else {
		e.state = next
		e.repartitioned = nil
		e.markStale(changedIDs)
	}
	return true
}

// markStale replaces the stale set with the channels whose kept-back
// partitions now differ from canonical. The repartition covered every
// previously stale channel (their links were in the touched set, or the
// pass was a full Partition), so channels outside changedIDs are
// canonical again and drop out of the set.
func (e *Engine[K, Ch, P]) markStale(changedIDs []ID) {
	clear(e.staleParts)
	for _, id := range changedIDs {
		e.staleParts[id] = struct{}{}
	}
}

// touchedKeys closes the touched set under construction in touchIdx: it
// widens it with the routes of every stale channel, so the next
// incremental repartition recomputes — and, where the new values stick,
// re-verifies — exactly what the reference engine's full Partition pass
// would heal, then returns the set's link keys in first-occurrence order
// (the scheme's vocabulary). The slice is reused by the next call.
func (e *Engine[K, Ch, P]) touchedKeys() []K {
	if len(e.staleParts) > 0 {
		ids := make([]ID, 0, len(e.staleParts))
		for id := range e.staleParts {
			ids = append(ids, id)
		}
		slices.Sort(ids)
		for _, id := range ids {
			if ent, ok := e.state.channels[id]; ok {
				e.touchIdx = e.addToSet(e.touchIdx, ent.idx)
			}
		}
	}
	keys := e.touchKeys[:0]
	for _, i := range e.touchIdx {
		keys = append(keys, e.state.keys[i])
	}
	e.touchKeys = keys
	return keys
}

// apply installs the computed partitions into the state's channels,
// returning the set of links whose task-set CONTENT changed and the IDs
// of the channels that moved (ascending). Channels in fresh hold no
// prior partition, so all their links count as changed; for the rest the
// per-hop diff in SetPartDiff keeps content-stable links out of the
// sweep. The reference-engine contract: a partition must be present for
// every channel. Partition validation is the adapter's Validate hook — a
// violation is a scheme implementation bug and panics.
func (e *Engine[K, Ch, P]) apply(st *State[K, Ch, P], parts map[ID]P, fresh map[ID]struct{}) ([]int32, []ID) {
	e.newSet(st)
	var changed []int32
	var changedIDs []ID
	for _, id := range st.order {
		entry, ok := st.channels[id]
		if !ok {
			continue
		}
		ch := entry.ch
		p, ok := parts[id]
		if !ok {
			panic(fmt.Sprintf("admit: scheme returned no partition for channel %d", id))
		}
		e.ops.Validate(ch, p)
		if e.ops.HasPart(ch, p) {
			continue
		}
		changedIDs = append(changedIDs, id)
		if _, isFresh := fresh[id]; isFresh {
			st.SetPart(ch, p)
			changed = e.addToSet(changed, entry.idx)
		} else {
			changed = e.addToSet(changed, st.setPartDiff(ch, p))
		}
	}
	slices.Sort(changedIDs)
	return changed, changedIDs
}

// partUndo records one channel's previous partition so a tentative
// repartition can be rolled back in place.
type partUndo[Ch any, P any] struct {
	ch  Ch
	old P
}

// applyDelta installs the partitions of an incremental repartition
// directly into the live state, returning an undo log (for rollback on
// rejection), the set of links whose task-set content changed, and the
// IDs of the channels that moved (ascending). Channels absent from parts
// are untouched by contract — an incremental scheme covers every channel
// that can have moved. fresh marks channels with no prior partition
// (establishment batches); nil means none (release).
func (e *Engine[K, Ch, P]) applyDelta(st *State[K, Ch, P], parts map[ID]P, fresh map[ID]struct{}) ([]partUndo[Ch, P], []int32, []ID) {
	var undo []partUndo[Ch, P]
	e.newSet(st)
	var changed []int32
	var changedIDs []ID
	for id, p := range parts {
		entry, ok := st.channels[id]
		if !ok {
			panic(fmt.Sprintf("admit: scheme returned a partition for unknown channel %d", id))
		}
		ch := entry.ch
		e.ops.Validate(ch, p)
		if e.ops.HasPart(ch, p) {
			continue
		}
		undo = append(undo, partUndo[Ch, P]{ch: ch, old: e.ops.Part(ch)})
		changedIDs = append(changedIDs, id)
		// The changed (= to-sweep) set is channel-granular: every link of
		// every repartitioned channel, exactly as the reference engine
		// sweeps it. The generation bumps underneath are finer: for a
		// pre-existing channel setPartDiff stamps only the hops whose
		// materialized task actually moved, which is what lets the
		// verdict cache skip the links a repartition pass touched but did
		// not change — without ever shrinking the swept set itself, so
		// cache on, cache off and the reference engine all sweep the same
		// links in the same order.
		if _, isFresh := fresh[id]; isFresh {
			st.SetPart(ch, p) // no valid prior partition to diff against
		} else {
			st.setPartDiff(ch, p)
		}
		changed = e.addToSet(changed, entry.idx)
	}
	slices.Sort(changedIDs)
	return undo, changed, changedIDs
}

// rollback restores the previous partitions recorded by applyDelta.
// SetPart (not setPartDiff) on purpose: it bumps every affected link's
// generation, invalidating any verdict the failed attempt recorded.
func (e *Engine[K, Ch, P]) rollback(st *State[K, Ch, P], undo []partUndo[Ch, P]) {
	for _, u := range undo {
		st.SetPart(u.ch, u.old)
	}
}

// verify tests feasibility of the changed links — every loaded link under
// FullRecheck — ordered by historically tightest slack first (ties: the
// adapter's deterministic link order), so a repartition that breaks
// something fails as early in the sweep as possible. Links whose task-set
// content did not change were feasible at the previous commit and cannot
// have become infeasible, which is what makes the restriction to the
// changed set decision-preserving; the slack history is identical across
// engine flavors (it advances only on commits), which makes the order —
// and therefore the first failure — identical too, regardless of worker
// count or cache mode.
func (e *Engine[K, Ch, P]) verify(st *State[K, Ch, P], changed []int32) *Rejection[K] {
	sweepStart := time.Now()
	e.fit(st)
	links := e.sweepLinks[:0]
	if e.cfg.FullRecheck {
		for i, n := range st.loads {
			if n > 0 {
				links = append(links, int32(i))
			}
		}
	} else {
		links = append(links, changed...)
	}
	slices.SortFunc(links, func(a, b int32) int {
		if c := cmp.Compare(e.slackHist[a], e.slackHist[b]); c != 0 {
			return c
		}
		return cmp.Compare(st.rank[a], st.rank[b])
	})
	e.sweepLinks = links

	// Verdict cache: a link whose generation still equals the one it was
	// last proven feasible at cannot have changed content — skip the test.
	useCache := e.cacheOn && st == e.state
	skip := growBuf(e.sweepSkip, len(links))
	live := 0
	for j, i := range links {
		skip[j] = useCache && e.feasGen[i] == st.gens[i]
		if skip[j] {
			e.sweepSkips++
			continue
		}
		live++
	}
	e.sweepSkip = skip

	var checked int
	var rej *Rejection[K]
	if e.workers > 1 && live >= minParallelLinks {
		checked, rej = e.sweepParallel(st, links, skip)
	} else {
		checked, rej = e.sweepSequential(st, links, skip)
	}
	e.linksChecked += checked
	e.sweepOK = checked
	if rej != nil {
		e.sweepOK = checked - 1
	}
	if useCache {
		// Record fresh proofs for the deterministic feasible prefix. Sound
		// even if this decision later rolls back: rollback bumps every
		// swept link's generation, orphaning these entries harmlessly.
		for i := 0; i < e.sweepOK; i++ {
			if !skip[i] {
				e.feasGen[links[i]] = st.gens[links[i]]
			}
		}
	}
	e.sweepNs += time.Since(sweepStart).Nanoseconds()
	return rej
}

// commitSlack folds the last sweep's measured slacks into the history.
// Called exactly when the decision the sweep verified commits; failed
// attempts record nothing, keeping the history a pure function of the
// committed decision sequence (see slackHist).
func (e *Engine[K, Ch, P]) commitSlack() {
	for i := 0; i < e.sweepOK; i++ {
		if e.sweepSkip[i] {
			continue // cache hit: content unchanged, recorded slack still exact
		}
		e.slackHist[e.sweepLinks[i]] = e.sweepResults[i].MinSlack
	}
}

// growBuf returns buf resized to n, reallocating only on growth.
func growBuf[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// sweepSequential checks the links in order, stopping at the first
// failure. The first constraint (U > 1, exact) comes from the state's
// incrementally maintained per-link sum — rational arithmetic is exact,
// so the answer matches a fresh summation bit for bit.
func (e *Engine[K, Ch, P]) sweepSequential(st *State[K, Ch, P], links []int32, skip []bool) (int, *Rejection[K]) {
	opts := e.cfg.Feasibility
	results := growBuf(e.sweepResults, len(links))
	e.sweepResults = results
	for j, i := range links {
		if skip[j] {
			continue
		}
		opts.UtilizationExceeds = &st.utilOver[i]
		res := edf.TestScratch(st.tasks[i], opts, &e.scratch)
		results[j] = res
		if !res.OK() {
			return j + 1, &Rejection[K]{Link: st.keys[i], Result: res}
		}
	}
	return len(links), nil
}

// sweepParallel fans the per-link tests out over the worker pool. The
// workers read the state's live task sets and utilization answers, which
// nothing writes during a sweep, and run pure feasibility tests with
// engine-owned per-worker scratch arenas (reused across flights). Workers
// skip links past the lowest failing index found so far, and the lowest
// failing index wins — the verdict, the named link and the reported check
// count are identical to the sequential sweep.
func (e *Engine[K, Ch, P]) sweepParallel(st *State[K, Ch, P], links []int32, skip []bool) (int, *Rejection[K]) {
	n := len(links)
	results := growBuf(e.sweepResults, n)
	e.sweepResults = results

	var next atomic.Int64
	var minFail atomic.Int64
	minFail.Store(int64(n))

	workers := e.workers
	if workers > n {
		workers = n
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(scratch *edf.Scratch) {
			defer wg.Done()
			opts := e.cfg.Feasibility
			for {
				i := next.Add(1) - 1
				// next is monotone: once i passes the lowest known
				// failure nothing this worker could pick up can matter.
				if i >= int64(n) || i >= minFail.Load() {
					return
				}
				if skip[i] {
					continue
				}
				l := links[i]
				opts.UtilizationExceeds = &st.utilOver[l]
				res := edf.TestScratch(st.tasks[l], opts, scratch)
				results[i] = res
				if !res.OK() {
					for {
						cur := minFail.Load()
						if i >= cur || minFail.CompareAndSwap(cur, i) {
							break
						}
					}
				}
			}
		}(&e.workerScratch[w])
	}
	wg.Wait()

	if f := minFail.Load(); f < int64(n) {
		return int(f) + 1, &Rejection[K]{Link: st.keys[links[f]], Result: results[f]}
	}
	return n, nil
}
