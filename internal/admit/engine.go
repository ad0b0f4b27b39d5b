package admit

import (
	"cmp"
	"math"
	"slices"
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
// channel's partition as a function of its own spec and the loads LL of
// the links it traverses, and nothing else. That is what lets a decision
// recompute only the channels whose split can have moved; the kernel
// walks them (Engine.Apply).
type Scheme[Ch any, P any] struct {
	// Part computes ch's partition from hopLoads, the loads of the links
	// it traverses in hop order. It may build the result in dst's storage
	// (kernel-owned scratch: its previous result, or zero), which the
	// kernel reuses for the next channel, so it keeps only a copy.
	Part func(ch Ch, hopLoads []int64, dst P) P
	// Adaptive reports whether Part reads hopLoads. When it does, a
	// decision recomputes every channel on a link it touched, whose load
	// moved; when it does not, the split is fixed by the spec and only the
	// decision's new channels are partitioned. It is asked at every
	// decision, so a scheme may change between decisions.
	Adaptive func() bool
}

// maxPooledParts bounds the undo log's recycled partitions: the log of a
// decision that moved more channels (a bulk admission, a failover) is
// dropped when the next decision starts, not recycled.
const maxPooledParts = 1024

// Config tunes an Engine.
type Config struct {
	// Feasibility passes through to the per-link EDF test.
	Feasibility edf.Options
}

// Engine owns a State and runs admission decisions against it
// copy-on-write: a decision (Apply) mutates the live state tentatively,
// tests only the links it moved (loaded a hop onto, or changed a hop's
// task on), and rolls back on rejection. A link it did not move holds a
// subset of its committed task set, and EDF feasibility survives the
// removal of tasks, so that link needs no test.
//
// Engine is not safe for concurrent use; the public rtether.Network
// serializes access.
type Engine[K comparable, Ch any, P any] struct {
	ops   *Ops[K, Ch, P]
	cfg   Config
	state *State[K, Ch, P]

	linksChecked int
	repartitions int

	sweepSkips int

	// walks and rescans count the demand walks the sweeps ran and the
	// summaries they rescanned, walkReads the entries those walks read (see
	// Walks, Rescans, WalkReads).
	walks, rescans, walkReads int

	// sweepNs accumulates wall time spent inside verification sweeps
	// (skips included). It is observability accounting only — never
	// part of a decision — so unlike the deterministic counters above it
	// varies run to run. It is atomic so that a reader needs no lock.
	sweepNs atomic.Int64

	// The per-link tables below are slices over the state's dense link
	// index (see State), grown by fit as the state interns links.
	//
	// slackHist[i] is the MinSlack (tightest demand-criterion margin) the
	// link showed at its most recent COMMITTED sweep, noSlack before any.
	// Sweeps visit links in ascending recorded slack — historically
	// tightest first, unswept links first of all — so an
	// infeasible repartition fails as early as possible. Only committed
	// sweeps update the history, so it is a pure function of the
	// committed decision sequence: the sweep order — and therefore the
	// named rejection link — does not depend on which links were skipped.
	slackHist []int64

	// Link sets (the touched set a repartition covers, the changed set a
	// sweep verifies) are epoch-stamped marks: marks[i] == epoch means
	// link i is in the set being built. Starting a set is one increment,
	// with no map and no clearing pass.
	marks []uint64
	epoch uint64

	// Reusable decision buffers: with these the steady-state repartition
	// walk and verify sweep allocate nothing.
	scratch      edf.Scratch
	touchIdx     []int32
	added        []*entry[Ch]
	changed      []int32
	undo         []partUndo[Ch, P]
	loads        []int64
	part         P
	sweepLinks   []int32 // the last sweep's changed links, in the order given
	sweepTest    []int32 // positions in sweepLinks the summaries left to the full test, in sweep order
	sweepResults []edf.Result

	cuts []*entry[Ch] // the running decision's removed channels, in cut order
}

// NewEngine returns an engine over an empty state.
func NewEngine[K comparable, Ch any, P any](ops *Ops[K, Ch, P], cfg Config) *Engine[K, Ch, P] {
	return &Engine[K, Ch, P]{ops: ops, cfg: cfg, state: NewState(ops)}
}

// State returns the live committed state. Callers must treat it as
// read-only.
func (e *Engine[K, Ch, P]) State() *State[K, Ch, P] { return e.state }

// ReplaceState swaps in a state assembled elsewhere (snapshot restore).
// Every per-link table is reset: link indices belong to one state.
func (e *Engine[K, Ch, P]) ReplaceState(st *State[K, Ch, P]) {
	e.state = st
	e.slackHist = e.slackHist[:0]
	e.marks = e.marks[:0]
}

// noSlack is the slack history of a link no committed sweep has tested:
// below every real slack, so such links sweep first.
const noSlack = math.MinInt64

// fit grows the per-link tables to cover every link the state has
// interned.
func (e *Engine[K, Ch, P]) fit() {
	for len(e.slackHist) < len(e.state.keys) {
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
// answers the engine accounts for: every link of a sweep set the sweep
// reached, whether it ran the test or skipped it (a link the decision
// did not move is still feasible). The count is deterministic.
func (e *Engine[K, Ch, P]) LinksChecked() int { return e.linksChecked }

// SweepSkips returns the cumulative number of per-link feasibility
// answers given without running the EDF analysis, because the decision
// did not move the link: a subset of the checks LinksChecked counts.
func (e *Engine[K, Ch, P]) SweepSkips() int { return e.sweepSkips }

// Walks returns the cumulative number of demand walks the verification
// sweeps have run: full EDF tests of a link its summary could not decide,
// which evaluate h(t) <= t over the busy period. Deterministic, like
// LinksChecked.
func (e *Engine[K, Ch, P]) Walks() int { return e.walks }

// WalkReads returns the cumulative number of task-set entries the demand
// walks have read: the deadline classes each walked (edf.Classes), plus
// every task slot of a class table a walk rebuilt first because a
// repartition had left it stale. Deterministic, like LinksChecked.
func (e *Engine[K, Ch, P]) WalkReads() int { return e.walkReads }

// Rescans returns the cumulative number of link summaries the
// verification sweeps have recomputed from the link's tasks because only
// a loose bound (see edf.Summary) stood between the summary and a
// decision. Deterministic, like LinksChecked.
func (e *Engine[K, Ch, P]) Rescans() int { return e.rescans }

// SweepNs returns the cumulative wall-clock nanoseconds spent in
// verification sweeps. Unlike LinksChecked this is measured, not
// deterministic; it exists for the observability surface
// (rtether.AdmissionStats, /metrics), never for decisions.
func (e *Engine[K, Ch, P]) SweepNs() int64 { return e.sweepNs.Load() }

// Repartitions returns the cumulative number of repartition passes the
// engine has run: one per Apply (a decision covering a whole batch, or a
// removal together with its replacement, counts once, which is what makes
// batch admission scale). The count is deterministic.
func (e *Engine[K, Ch, P]) Repartitions() int { return e.repartitions }

// Apply is the engine's one decision: it removes the channels listed in
// remove (active and distinct), adds n new ones — mk(i, id) constructs
// the i-th with its allocated ID (the adapter has validated and routed
// the specs already) — and verifies the result. It cuts the removed
// channels out of the live state, adds the new ones, repartitions
// (repartition) the channels whose split can have moved — under a
// load-adaptive scheme every channel on the links of both (one touched
// set), otherwise the new channels alone — tests only the links it moved,
// and rolls everything back on rejection: the removed
// channels go back into the slots they were cut from, so the committed
// state is bit-identical to before — task table, summaries, establishment
// order and ID allocator.
//
// A decision that would leave more channels live than Ops.MaxID IDs is
// refused up front, with an Inconclusive result whose Err is
// ErrIDsExhausted. A pure removal (n == 0) never fails. If its
// repartition fails verification every remaining channel keeps the
// partition it had: removing load can never invalidate the schedule
// under unchanged partitions. A kept-back partition stays until a later
// decision touches one of its channel's links, which recomputes it as
// usual; decisions elsewhere never see it.
func (e *Engine[K, Ch, P]) Apply(remove []ID, n int, mk func(i int, id ID) Ch, scheme Scheme[Ch, P]) ([]Ch, *Rejection[K]) {
	st := e.state
	if st.Len()-len(remove)+n > int(st.maxID()) {
		return nil, &Rejection[K]{Result: edf.Result{Verdict: edf.Inconclusive, Err: ErrIDsExhausted}}
	}
	chs := make([]Ch, n)
	st.begin()
	savedNext := st.nextID
	e.cuts = e.cuts[:0]
	for _, id := range remove {
		e.cuts = append(e.cuts, st.cut(id))
	}
	e.added = e.added[:0]
	for i := range chs {
		chs[i] = mk(i, st.AllocID())
		e.added = append(e.added, st.add(chs[i]))
	}
	e.newSet()
	e.touchIdx = e.touchIdx[:0]
	for _, c := range e.cuts {
		e.touchIdx = e.addToSet(e.touchIdx, c.idx)
	}
	for _, a := range e.added {
		e.touchIdx = e.addToSet(e.touchIdx, a.idx)
	}

	e.repartitions++
	e.repartition(scheme)
	rej := e.verify(e.changed)
	if rej == nil || n == 0 {
		if rej == nil {
			e.commitSlack()
		} else {
			e.rollback() // the removal alone stands
		}
		st.end()
		st.compact(e.cuts)
		return chs, nil
	}
	e.rollback()
	for i := n - 1; i >= 0; i-- {
		st.UndoAdd(chs[i])
	}
	for k := len(e.cuts) - 1; k >= 0; k-- {
		st.restore(e.cuts[k])
	}
	st.nextID = savedNext
	st.abort()
	return nil, rej
}

// partUndo records one channel's previous partition so a tentative
// repartition can be rolled back in place. The log's entries are
// recycled across decisions, old's storage with them.
type partUndo[Ch any, P any] struct {
	e   *entry[Ch]
	old P
}

// repartition recomputes the partition of every channel the running
// decision can have moved — under a load-adaptive scheme each channel on
// a touched link, visited once however many touched links it crosses;
// otherwise only the decision's new channels — and installs the ones
// that differ (visit). It leaves the set of links to sweep in e.changed
// and e.undo holding the old partitions. It lists no moved channels:
// every reader of a partition, a running simulation included, reads it
// from the channel.
func (e *Engine[K, Ch, P]) repartition(scheme Scheme[Ch, P]) {
	st := e.state
	e.newSet()
	e.changed = e.changed[:0]
	if cap(e.undo) > maxPooledParts {
		e.undo = nil
	}
	e.undo = e.undo[:0]
	if scheme.Adaptive() {
		st.walk++
		for _, i := range e.touchIdx {
			for _, r := range st.byLink[i] {
				if r.e != nil && r.e.seen != st.walk {
					r.e.seen = st.walk
					e.visit(r.e, scheme)
				}
			}
		}
	} else {
		for _, a := range e.added {
			e.visit(a, scheme)
		}
	}
}

// visit recomputes one channel's partition from its hop loads and, when
// it differs from the one the channel holds, logs the old one and
// installs the new one.
//
// The changed (= to-sweep) set is channel-granular: every link of every
// repartitioned channel. The moved marks underneath are finer: setPart
// marks only the hops whose task actually changed (all of a new
// channel's, whose placeholder tasks have D = 0), which lets the sweep
// skip the links a repartition pass touched but did not move — without
// ever shrinking the swept set itself, so the sweep order and the
// LinksChecked accounting do not depend on the skips.
func (e *Engine[K, Ch, P]) visit(en *entry[Ch], scheme Scheme[Ch, P]) {
	st := e.state
	e.loads = st.hopLoads(en, e.loads[:0])
	e.part = scheme.Part(en.ch, e.loads, e.part)
	e.ops.Validate(en.ch, e.part)
	if e.ops.HasPart(en.ch, e.part) {
		return
	}
	k := len(e.undo)
	if k < cap(e.undo) {
		e.undo = e.undo[:k+1]
	} else {
		e.undo = append(e.undo, partUndo[Ch, P]{})
	}
	u := &e.undo[k]
	u.e, u.old = en, e.ops.Part(en.ch, u.old)
	st.setPart(en, e.part)
	e.changed = e.addToSet(e.changed, en.idx)
}

// rollback restores the previous partitions recorded by repartition.
func (e *Engine[K, Ch, P]) rollback() {
	for _, u := range e.undo {
		e.state.setPart(u.e, u.old)
	}
}

// verify tests feasibility of the changed links and names the first
// failure in sweep order: historically tightest slack first (ties: the
// adapter's deterministic link order), so a repartition that breaks
// something fails as early as possible. A link the running decision did
// not move is skipped with no test (see Engine), a link that only lost
// tasks to a cut or that a rollback restored included. The slack history
// advances only on commits, which makes the order — and therefore the
// first failure — independent of the skips.
//
// Only the links the cheap answers leave open are sorted. First, in any
// order, every moved link asks its summary (State.verdict): a link the
// summary proves feasible gets the Result the EDF test would give it,
// with no task read. The links left over — a demand walk to run, or a
// failure to diagnose — are sorted into sweep order, cut after the first
// one a summary proved infeasible (no later link can be the one named),
// and run the full test in that order. The accounting is the fully
// sorted sweep's: on a rejection, LinksChecked and SweepSkips cover
// exactly the changed links that sort before the failing one, counted in
// one pass.
func (e *Engine[K, Ch, P]) verify(changed []int32) *Rejection[K] {
	sweepStart := time.Now()
	st := e.state
	results := growBuf(e.sweepResults, len(changed))
	test := e.sweepTest[:0]
	for j, i := range changed {
		if !st.isMoved(i) {
			continue
		}
		res, ok, rescanned := st.verdict(i)
		if rescanned {
			e.rescans++
		}
		// An undecided link's res is Decide's provisional Feasible; only a
		// summary-proven failure carries another verdict.
		results[j] = res
		if !ok || !res.OK() {
			test = append(test, int32(j))
		}
	}
	slices.SortFunc(test, func(a, b int32) int { return e.sweepOrder(changed[a], changed[b]) })
	for k, j := range test {
		if results[j].Verdict != edf.Feasible {
			test = test[:k+1]
			break
		}
	}
	e.sweepLinks, e.sweepResults, e.sweepTest = changed, results, test

	fail, rej := e.sweepSequential(changed, test)
	// Count the links the sweep reached, and the skips among them.
	for _, i := range changed {
		if rej != nil && e.sweepOrder(i, changed[fail]) >= 0 {
			continue
		}
		e.linksChecked++
		if !st.isMoved(i) {
			e.sweepSkips++
		}
	}
	if rej != nil {
		e.linksChecked++ // the failing link
	}
	e.sweepNs.Add(time.Since(sweepStart).Nanoseconds())
	return rej
}

// sweepOrder compares two links in sweep order: ascending recorded slack,
// then the adapter's link order.
func (e *Engine[K, Ch, P]) sweepOrder(a, b int32) int {
	if c := cmp.Compare(e.slackHist[a], e.slackHist[b]); c != 0 {
		return c
	}
	return cmp.Compare(e.state.rank[a], e.state.rank[b])
}

// commitSlack folds the last sweep's measured slacks into the history.
// Called exactly when the decision the sweep verified commits; failed
// attempts record nothing, keeping the history a pure function of the
// committed decision sequence (see slackHist).
func (e *Engine[K, Ch, P]) commitSlack() {
	for j, i := range e.sweepLinks {
		if !e.state.isMoved(i) {
			continue // no test ran: the recorded slack stands
		}
		e.slackHist[i] = e.sweepResults[j].MinSlack
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
// positions, in order, stopping at the first failure, whose position it
// returns with the rejection. The first constraint (U > 1, exact) comes
// from the link's summary, kept from the state's incrementally maintained
// rational sum — rational arithmetic is exact, so the answer matches a
// fresh summation bit for bit. Only the rejection reports the link's
// utilization, so only the failing link sums it.
func (e *Engine[K, Ch, P]) sweepSequential(links, test []int32) (int32, *Rejection[K]) {
	st := e.state
	for _, j := range test {
		i := links[j]
		res := st.test(i, e.cfg.Feasibility, &e.scratch)
		if res.BusyPeriod != 0 {
			e.walks++ // past Decide's early exits, a busy period was walked
			e.walkReads += e.scratch.Reads()
		}
		e.sweepResults[j] = res
		if !res.OK() {
			res.Utilization = st.utilization(i)
			return j, &Rejection[K]{Link: st.keys[i], Result: res}
		}
	}
	return -1, nil
}
