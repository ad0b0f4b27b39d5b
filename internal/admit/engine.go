package admit

import (
	"cmp"
	"fmt"
	"math"
	"slices"
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

// Scheme is one deadline partitioning scheme as the kernel sees it: after a
// mutation that touched the given links, it returns the new partition of
// every channel it recomputes. It must return one for every channel that
// holds none yet (the decision's new channels) and may return one only
// for a channel traversing a touched link; every channel it omits keeps
// the partition it holds.
type Scheme[K comparable, Ch any, P any] func(st *State[K, Ch, P], touched []K) map[ID]P

// Config tunes an Engine.
type Config struct {
	// Feasibility passes through to the per-link EDF test.
	Feasibility edf.Options
}

// Engine owns a State and runs admission decisions against it
// copy-on-write: a decision mutates the live state tentatively, verifies
// only the links whose task sets changed, and rolls back on rejection.
//
// Engine is not safe for concurrent use; the public rtether.Network
// serializes access.
type Engine[K comparable, Ch any, P any] struct {
	ops   *Ops[K, Ch, P]
	cfg   Config
	state *State[K, Ch, P]

	linksChecked  int
	repartitions  int
	repartitioned []ID

	// The per-link tables below are slices over the state's dense link
	// index (see State), grown by fit as the state interns links.
	//
	// Feasibility-verdict cache: feasGen[i] is the generation stamp at
	// which link i was last PROVEN feasible (0: never). A sweep skips
	// any link whose current generation still equals its proven one — the
	// link's task-set content has not changed, so the cached verdict
	// stands. Generation stamps are never reused for different content
	// (State.bumpGen is monotone and undo bumps again rather than
	// restoring), which makes a stamp match a sound proof of content
	// equality.
	feasGen    []uint64
	sweepSkips int

	// sweepNs accumulates wall time spent inside verification sweeps
	// (cache hits included). It is observability accounting only — never
	// part of a decision — so unlike the deterministic counters above it
	// varies run to run.
	sweepNs int64

	// slackHist[i] is the MinSlack (tightest demand-criterion margin) the
	// link showed at its most recent COMMITTED sweep, noSlack before any.
	// Sweeps visit links in ascending recorded slack — historically
	// tightest first, unswept links first of all — so an
	// infeasible repartition fails as early as possible. Only committed
	// sweeps update the history, so it is a pure function of the
	// committed decision sequence: the sweep order — and therefore the
	// named rejection link — does not depend on which verdicts the cache
	// answered.
	slackHist []int64

	// Link sets (the touched set a repartition covers, the changed set a
	// sweep verifies) are epoch-stamped marks: marks[i] == epoch means
	// link i is in the set being built. Starting a set is one increment,
	// with no map and no clearing pass.
	marks []uint64
	epoch uint64

	// Reusable sweep buffers: with these the steady-state verify sweep
	// allocates nothing.
	scratch      edf.Scratch
	touchIdx     []int32
	touchKeys    []K
	sweepLinks   []int32
	sweepSkip    []bool
	sweepTest    []int32 // positions in sweepLinks the summaries left to the full test
	sweepResults []edf.Result
	sweepOK      int // feasible prefix length of the last sweep
}

// NewEngine returns an engine over an empty state.
func NewEngine[K comparable, Ch any, P any](ops *Ops[K, Ch, P], cfg Config) *Engine[K, Ch, P] {
	return &Engine[K, Ch, P]{ops: ops, cfg: cfg, state: NewState(ops)}
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

// fit grows the per-link tables to cover every link the state has
// interned.
func (e *Engine[K, Ch, P]) fit() {
	for len(e.feasGen) < len(e.state.keys) {
		e.feasGen = append(e.feasGen, 0)
		e.slackHist = append(e.slackHist, noSlack)
		e.marks = append(e.marks, 0)
	}
}

// newSet starts an empty link set over the state's index space.
func (e *Engine[K, Ch, P]) newSet() {
	e.fit()
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
// independent of the verdict cache: a cache hit counts as a check (the
// cached verdict answers the same question).
func (e *Engine[K, Ch, P]) LinksChecked() int { return e.linksChecked }

// SweepSkips returns the cumulative number of per-link feasibility tests
// the verdict cache answered without running the EDF analysis: a subset
// of the checks LinksChecked counts.
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
// the remaining channels. The count is deterministic.
func (e *Engine[K, Ch, P]) Repartitions() int { return e.repartitions }

// Repartitioned returns the IDs (ascending) of the channels whose
// partitions changed in the last successful Admit or Release —
// establishments include the new channels. The slice is invalidated by
// the next mutation.
func (e *Engine[K, Ch, P]) Repartitioned() []ID { return e.repartitioned }

// Admit runs one admission decision for a batch of n new channels:
// mk(i, id) constructs the i-th channel with its allocated ID (the
// adapter has validated and routed the specs already). The schemes are
// tried in order — the paper's fallback search — and the first whose
// tentative system passes verification commits. Each attempt adds the
// channels to the live state, repartitions what the scheme recomputes on
// the links they touch, verifies only the links whose task sets changed,
// and rolls everything back on rejection. On rejection the committed
// state is untouched (bit for bit, including the ID allocator) and the
// first scheme's rejection is returned.
func (e *Engine[K, Ch, P]) Admit(n int, mk func(i int, id ID) Ch, schemes []Scheme[K, Ch, P]) ([]Ch, *Rejection[K]) {
	var firstRej *Rejection[K]
	for _, scheme := range schemes {
		savedNext := e.state.nextID
		chs := make([]Ch, n)
		for i := 0; i < n; i++ {
			ch := mk(i, e.state.AllocID())
			e.state.Add(ch)
			chs[i] = ch
		}
		e.newSet()
		e.touchIdx = e.touchIdx[:0]
		for _, ch := range chs {
			e.touchIdx = e.addToSet(e.touchIdx, e.state.channels[e.ops.ID(ch)].idx)
		}

		e.repartitions++
		undo, changed, changedIDs := e.applyDelta(scheme(e.state, e.touchedKeys()))

		rej := e.verify(changed)
		if rej == nil {
			e.repartitioned = changedIDs
			e.commitSlack()
			return chs, nil
		}
		e.rollback(undo)
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

// Release tears down a channel and repartitions the channels sharing a
// link with it (a scheme is a function of the system state). If that
// repartition fails verification, every remaining channel keeps the
// partition it had: removing load can never invalidate the schedule under
// unchanged partitions. A kept-back partition stays until a later
// decision touches one of its channel's links, which recomputes it as
// usual; decisions elsewhere never see it. It reports whether the
// channel existed.
func (e *Engine[K, Ch, P]) Release(id ID, scheme Scheme[K, Ch, P]) bool {
	entry, ok := e.state.channels[id]
	if !ok {
		return false
	}
	e.state.Remove(id)
	e.newSet()
	e.touchIdx = e.addToSet(e.touchIdx[:0], entry.idx)
	e.repartitions++
	undo, changed, changedIDs := e.applyDelta(scheme(e.state, e.touchedKeys()))
	if rej := e.verify(changed); rej != nil {
		e.rollback(undo)
		changedIDs = nil
	} else {
		e.commitSlack()
	}
	e.repartitioned = changedIDs
	return true
}

// touchedKeys returns the link keys of the touched set built in touchIdx,
// in first-occurrence order (the scheme's vocabulary). The slice is
// reused by the next call.
func (e *Engine[K, Ch, P]) touchedKeys() []K {
	keys := e.touchKeys[:0]
	for _, i := range e.touchIdx {
		keys = append(keys, e.state.keys[i])
	}
	e.touchKeys = keys
	return keys
}

// partUndo records one channel's previous partition so a tentative
// repartition can be rolled back in place.
type partUndo[Ch any, P any] struct {
	ch  Ch
	old P
}

// applyDelta installs a scheme's partitions directly into the live state,
// returning an undo log (for rollback on rejection), the set of links
// whose task-set content changed, and the IDs of the channels that moved
// (ascending). Channels absent from parts keep their partitions.
func (e *Engine[K, Ch, P]) applyDelta(parts map[ID]P) ([]partUndo[Ch, P], []int32, []ID) {
	st := e.state
	var undo []partUndo[Ch, P]
	e.newSet()
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
		// every repartitioned channel. The generation bumps underneath are
		// finer: setPartDiff stamps only the hops whose materialized task
		// actually moved (all of a new channel's, whose placeholder tasks
		// have D = 0), which is what lets the verdict cache skip the links
		// a repartition pass touched but did not change — without ever
		// shrinking the swept set itself, so the sweep order and the
		// LinksChecked accounting do not depend on the cache.
		st.setPartDiff(ch, p)
		changed = e.addToSet(changed, entry.idx)
	}
	slices.Sort(changedIDs)
	return undo, changed, changedIDs
}

// rollback restores the previous partitions recorded by applyDelta.
// SetPart (not setPartDiff) on purpose: it bumps every affected link's
// generation, invalidating any verdict the failed attempt recorded.
func (e *Engine[K, Ch, P]) rollback(undo []partUndo[Ch, P]) {
	for _, u := range undo {
		e.state.SetPart(u.ch, u.old)
	}
}

// verify tests feasibility of the changed links, ordered by historically
// tightest slack first (ties: the adapter's deterministic link order), so
// a repartition that breaks something fails as early in the sweep as
// possible. Links whose task-set content did not change were feasible at
// the previous commit and cannot have become infeasible, which is what
// makes the restriction to the changed set decision-preserving. The slack
// history advances only on commits, which makes the order — and therefore
// the first failure — independent of the cache.
//
// Before the sweep, every link the cache does not answer asks its summary
// (State.verdict): a link the summary proves feasible gets the Result the
// EDF test would give it, with no task read. Only the links left over — a
// demand walk to run, or a failure to diagnose — run the full test, in
// order.
func (e *Engine[K, Ch, P]) verify(changed []int32) *Rejection[K] {
	sweepStart := time.Now()
	st := e.state
	e.fit()
	links := append(e.sweepLinks[:0], changed...)
	slices.SortFunc(links, func(a, b int32) int {
		if c := cmp.Compare(e.slackHist[a], e.slackHist[b]); c != 0 {
			return c
		}
		return cmp.Compare(st.rank[a], st.rank[b])
	})
	e.sweepLinks = links

	// Verdict cache: a link whose generation still equals the one it was
	// last proven feasible at cannot have changed content — skip the test.
	skip := growBuf(e.sweepSkip, len(links))
	results := growBuf(e.sweepResults, len(links))
	test := e.sweepTest[:0]
	doomed := false // a summary proved a link infeasible: later links cannot matter
	for j, i := range links {
		skip[j] = e.feasGen[i] == st.gens[i]
		if skip[j] || doomed {
			continue
		}
		res, ok := st.verdict(i)
		if ok && res.OK() {
			results[j] = res
			continue
		}
		test = append(test, int32(j))
		doomed = ok
	}
	e.sweepSkip, e.sweepResults, e.sweepTest = skip, results, test

	checked, rej := e.sweepSequential(links, test)
	e.linksChecked += checked
	e.sweepOK = checked
	if rej != nil {
		e.sweepOK = checked - 1
	}
	// Record fresh proofs for the feasible prefix, and count the cache hits
	// the sweep reached. Sound even if this decision later rolls back:
	// rollback bumps every swept link's generation, orphaning these entries
	// harmlessly.
	for i := 0; i < checked; i++ {
		if skip[i] {
			e.sweepSkips++
		} else if i < e.sweepOK {
			e.feasGen[links[i]] = st.gens[links[i]]
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

// sweepSequential runs the full EDF test on the links at the given
// positions, in order, stopping at the first failure; it returns how many
// sweep positions that accounts for. The first constraint (U > 1, exact)
// comes from the link's summary, kept from the state's incrementally
// maintained rational sum — rational arithmetic is exact, so the answer
// matches a fresh summation bit for bit.
func (e *Engine[K, Ch, P]) sweepSequential(links, test []int32) (int, *Rejection[K]) {
	st := e.state
	for _, j := range test {
		i := links[j]
		res := st.sums[i].Test(st.tasks[i], e.cfg.Feasibility, &e.scratch)
		e.sweepResults[j] = res
		if !res.OK() {
			return int(j) + 1, &Rejection[K]{Link: st.keys[i], Result: res}
		}
	}
	return len(links), nil
}
