package admit

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/edf"
)

func toy(st *State[int, *toyChan, int64], c, p int64, links ...int) *toyChan {
	return &toyChan{id: st.AllocID(), c: c, p: p, links: links, part: p}
}

// TestDrainedLinkKeepsIndex drains a link to load 0 through Remove and
// through UndoAdd, reloads it, and checks it keeps its dense index and
// its per-link tables restart from an exact zero.
func TestDrainedLinkKeepsIndex(t *testing.T) {
	st := NewState(toyOps)
	a := toy(st, 1, 3, 7, 3)
	st.Add(a)
	i7 := st.index[7]

	st.Remove(a.id)
	if st.LinkLoad(7) != 0 || st.LoadedLinks() != 0 || len(st.Links()) != 0 || st.TasksOn(7) != nil {
		t.Fatalf("drained state: load %d, loaded %d, links %v, tasks %v",
			st.LinkLoad(7), st.LoadedLinks(), st.Links(), st.TasksOn(7))
	}
	if st.utilSum[i7] != (edf.UtilSum{}) || st.sums[i7] != (edf.Summary{}) {
		t.Fatalf("drained link keeps utilization %v (summary %+v)", st.utilSum[i7], st.sums[i7])
	}

	b := toy(st, 2, 5, 7)
	st.Add(b)
	if got := st.index[7]; got != i7 {
		t.Fatalf("reloaded link 7 has index %d, had %d", got, i7)
	}
	if len(st.keys) != 2 {
		t.Fatalf("reload interned a new index: keys %v", st.keys)
	}
	if st.utilSum[i7].Rat().Cmp(big.NewRat(2, 5)) != 0 || len(st.TasksOn(7)) != 1 {
		t.Fatalf("reloaded link: U=%v tasks %v, want 2/5 and one task", st.utilSum[i7], st.TasksOn(7))
	}

	c := toy(st, 1, 4, 7, 9)
	st.Add(c)
	i9 := st.index[9]
	st.UndoAdd(c)
	if st.LinkLoad(9) != 0 || st.LoadedLinks() != 1 {
		t.Fatalf("after UndoAdd: load(9)=%d loaded=%d", st.LinkLoad(9), st.LoadedLinks())
	}
	st.Add(toy(st, 1, 4, 9))
	if st.index[9] != i9 {
		t.Fatalf("link 9 re-interned after UndoAdd: %d, had %d", st.index[9], i9)
	}
}

// TestCloneIsIndependent mutates a Clone every way the engines do and
// checks the original saw none of it, while the clone extends the
// original's link index rather than renumbering it.
func TestCloneIsIndependent(t *testing.T) {
	st := NewState(toyOps)
	for _, links := range [][]int{{4, 1}, {1, 2}, {2, 8}, {8}} {
		st.Add(toy(st, 1, 10, links...))
	}
	fingerprint := func(s *State[int, *toyChan, int64]) string {
		out := fmt.Sprintf("len=%d next=%d loaded=%d mean=%v|", s.Len(), s.NextID(), s.LoadedLinks(), s.MeanLinkUtilization())
		for _, l := range s.Links() {
			i := s.index[l]
			out += fmt.Sprintf("%d:%d:%v:%v:%v:%+v;", l, s.LinkLoad(l), s.utilSum[i], s.TasksOn(l), s.byLink[i][0].e.ch.part, s.sums[i])
		}
		return out
	}
	before := fingerprint(st)
	keys := slices.Clone(st.keys)

	cp := st.Clone()
	first := cp.Channels()[0]
	cp.SetPart(first, 5)
	cp.setPart(cp.channels[cp.Channels()[1].id], 7)
	cp.Remove(cp.Channels()[2].id)
	cp.Add(toy(cp, 3, 10, 8, 42))
	cp.Add(toy(cp, 1, 10, 0))
	cp.UndoAdd(cp.Channels()[cp.Len()-1])

	if got := fingerprint(st); got != before {
		t.Fatalf("original changed by clone mutations:\n before %s\n after  %s", before, got)
	}
	if _, ok := st.index[42]; ok || !slices.Equal(st.keys, keys) {
		t.Fatalf("clone interned into the original: keys %v", st.keys)
	}
	for l, i := range st.index {
		if cp.index[l] != i {
			t.Fatalf("clone renumbered link %d: %d, original %d", l, cp.index[l], i)
		}
	}
	if got := cp.index[42]; got != int32(len(keys)) {
		t.Fatalf("clone gave new link 42 index %d, want the next one %d", got, len(keys))
	}
}

// TestLinksMatchFreshSort churns a state at random and checks after
// every step that Links equals a fresh sort by Less of the loaded links,
// and that MeanLinkUtilization is bit-identical to a recomputation in
// that order.
func TestLinksMatchFreshSort(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	st := NewState(toyOps)
	var live []*toyChan
	for step := 0; step < 2000; step++ {
		switch r := rng.Intn(10); {
		case r < 5 || len(live) == 0:
			links := rng.Perm(60)[:1+rng.Intn(3)]
			ch := toy(st, int64(1+rng.Intn(3)), int64(5+rng.Intn(40)), links...)
			st.Add(ch)
			live = append(live, ch)
		case r < 6:
			last := live[len(live)-1]
			if st.order[len(st.order)-1] == last.id {
				st.UndoAdd(last)
				live = live[:len(live)-1]
			}
		default:
			k := rng.Intn(len(live))
			st.Remove(live[k].id)
			live = append(live[:k], live[k+1:]...)
		}

		load := map[int]int{}
		for _, ch := range live {
			for _, l := range ch.links {
				load[l]++
			}
		}
		var want []int
		for l := range load {
			want = append(want, l)
		}
		slices.SortFunc(want, func(a, b int) int {
			if toyOps.Less(a, b) {
				return -1
			}
			return 1
		})
		if got := st.Links(); !slices.Equal(got, want) {
			t.Fatalf("step %d: Links = %v, want %v", step, got, want)
		}
		if st.LoadedLinks() != len(want) {
			t.Fatalf("step %d: LoadedLinks = %d, want %d", step, st.LoadedLinks(), len(want))
		}
		var sum float64
		for _, l := range want {
			var u float64
			for _, ch := range st.Channels() {
				if slices.Contains(ch.links, l) {
					u += float64(ch.c) / float64(ch.p)
				}
			}
			sum += u
		}
		mean := 0.0
		if len(want) > 0 {
			mean = sum / float64(len(want))
		}
		if got := st.MeanLinkUtilization(); got != mean {
			t.Fatalf("step %d: MeanLinkUtilization = %v, recomputed %v", step, got, mean)
		}
	}
}

// TestReplaceStateMatchesFreshEngine gives an engine a history (slack
// history, interned links) on one state, swaps in a state
// assembled elsewhere whose links are interned in a different order,
// and requires every later decision — verdict, named link, diagnostic,
// LinksChecked and skips — to match a fresh engine handed an
// identical state. A per-link table surviving the swap would read
// another link's history.
func TestReplaceStateMatchesFreshEngine(t *testing.T) {
	scheme := constScheme(8)
	assemble := func() *State[int, *toyChan, int64] {
		st := NewState(toyOps)
		for i := 0; i < 12; i++ {
			ch := toy(st, 1, 60, 5-i%6, 6+i%3)
			ch.part = 8
			st.Add(ch)
		}
		return st
	}

	used := newToyEngine(Config{})
	rng := rand.New(rand.NewSource(11))
	for _, mk := range randomToySpecs(rng, 40) {
		used.Apply(nil, 1, func(_ int, id ID) *toyChan { return mk(id) }, scheme)
	}
	if len(used.slackHist) == 0 || used.LinksChecked() == 0 {
		t.Fatal("history engine built no history")
	}
	used.ReplaceState(assemble())
	if len(used.slackHist) != 0 {
		t.Fatalf("ReplaceState kept %d slack entries of the old state", len(used.slackHist))
	}
	fresh := newToyEngine(Config{})
	fresh.ReplaceState(assemble())

	checked0, skips0 := used.LinksChecked(), used.SweepSkips()
	mks := randomToySpecs(rand.New(rand.NewSource(12)), 60)
	for i, mk := range mks {
		gen := func(_ int, id ID) *toyChan {
			ch := mk(id)
			ch.links = []int{ch.links[0] + 3, ch.links[1] + 3}
			return ch
		}
		c0, s0 := fresh.LinksChecked(), fresh.SweepSkips()
		_, ru := used.Apply(nil, 1, gen, scheme)
		_, rf := fresh.Apply(nil, 1, gen, scheme)
		if checked, skips := fresh.LinksChecked()-c0, fresh.SweepSkips()-s0; skips > checked {
			t.Fatalf("decision %d: %d skips out of %d checks", i, skips, checked)
		}
		if (ru == nil) != (rf == nil) {
			t.Fatalf("decision %d: replaced engine rejected=%v, fresh rejected=%v", i, ru != nil, rf != nil)
		}
		if ru != nil && (ru.Link != rf.Link || ru.Result.String() != rf.Result.String()) {
			t.Fatalf("decision %d: replaced %v@%d, fresh %v@%d", i, ru.Result, ru.Link, rf.Result, rf.Link)
		}
		if i%5 == 4 {
			victim := fresh.State().Channels()[0].id
			used.Apply([]ID{victim}, 0, nil, scheme)
			fresh.Apply([]ID{victim}, 0, nil, scheme)
		}
	}
	if got, want := used.LinksChecked()-checked0, fresh.LinksChecked(); got != want {
		t.Fatalf("LinksChecked after swap = %d, fresh engine %d", got, want)
	}
	if got, want := used.SweepSkips()-skips0, fresh.SweepSkips(); got != want {
		t.Fatalf("SweepSkips after swap = %d, fresh engine %d", got, want)
	}
}

// TestSweepTiesFollowLessNotInternOrder interns links in reverse key
// order and fails every link from 40 up: with no slack history every
// link ties, so the sweep must fall back to Less order (maintained at
// intern time) and name link 40 after 41 checks, not the first-interned
// failing link 63.
func TestSweepTiesFollowLessNotInternOrder(t *testing.T) {
	e := newToyEngine(Config{})
	scheme := toyScheme(false, func(ch *toyChan) int64 {
		if ch.links[0] >= 40 {
			return 3 // two C=2 tasks cannot meet D=3
		}
		return 10
	})
	_, rej := e.Apply(nil, 128, func(i int, id ID) *toyChan {
		return &toyChan{id: id, c: 2, p: 100, links: []int{63 - i%64}}
	}, scheme)
	if rej == nil || rej.Link != 40 || e.LinksChecked() != 41 {
		t.Fatalf("rejection %v after %d checks, want link 40 after 41", rej, e.LinksChecked())
	}
}

// hopOps is toyOps with a distinct deadline per hop (part + hop), so a
// task stored at the wrong hop or the wrong position shows.
var hopOps = func() *Ops[int, *toyChan, int64] {
	ops := *toyOps
	ops.Task = func(ch *toyChan, hop int) edf.Task {
		return edf.Task{C: ch.c, P: ch.p, D: ch.part + int64(hop)}
	}
	return &ops
}()

// checkTaskTable fails t unless every link's hop list, tombstones
// skipped, is the per-link restriction of the establishment order, its
// task list equals a fresh Ops.Task pass over that hop list with the zero
// Task in every tombstone's slot, its dead count is its tombstone count,
// its class table when live equals a rebuild, and every position a
// channel entry records names the hop's own slot.
func checkTaskTable(t *testing.T, step int, st *State[int, *toyChan, int64]) {
	t.Helper()
	want := make([][]ref[*toyChan], len(st.keys))
	for _, ch := range st.Channels() {
		e := st.channels[ch.id]
		for hop, i := range e.idx {
			want[i] = append(want[i], ref[*toyChan]{e: e, hop: hop})
		}
	}
	for i, refs := range st.byLink {
		var live []ref[*toyChan]
		for j, r := range refs {
			if r.e == nil {
				if st.tasks[i][j] != (edf.Task{}) {
					t.Fatalf("step %d: link %d tombstone %d holds task %v", step, st.keys[i], j, st.tasks[i][j])
				}
				continue
			}
			live = append(live, r)
			if got, fresh := st.tasks[i][j], st.ops.Task(r.e.ch, r.hop); got != fresh {
				t.Fatalf("step %d: link %d slot %d: task %v, rebuild %v", step, st.keys[i], j, got, fresh)
			}
			if pos := r.e.pos[r.hop]; pos != int32(j) {
				t.Fatalf("step %d: link %d slot %d: channel %d records position %d", step, st.keys[i], j, r.e.ch.id, pos)
			}
		}
		if len(live) != len(want[i]) || len(st.tasks[i]) != len(refs) || st.loads[i] != len(live) || int(st.dead[i]) != len(refs)-len(live) {
			t.Fatalf("step %d: link %d: %d slots, %d live, %d tasks, load %d, dead %d; want %d hops",
				step, st.keys[i], len(refs), len(live), len(st.tasks[i]), st.loads[i], st.dead[i], len(want[i]))
		}
		for j, r := range live {
			if r != want[i][j] {
				t.Fatalf("step %d: link %d hop %d is channel %d hop %d, establishment order has channel %d hop %d",
					step, st.keys[i], j, r.e.ch.id, r.hop, want[i][j].e.ch.id, want[i][j].hop)
			}
		}
		if cs := st.classes[i]; !cs.Stale() {
			var fresh edf.Classes
			fresh.Rebuild(st.tasks[i])
			if !slices.Equal(cs.All(), fresh.All()) {
				t.Fatalf("step %d: link %d: live class table %+v, rebuild %+v", step, st.keys[i], cs.All(), fresh.All())
			}
		}
	}
	for id, e := range st.channels {
		for hop, i := range e.idx {
			if r := st.byLink[i][e.pos[hop]]; r.e != e || r.hop != hop {
				t.Fatalf("step %d: channel %d hop %d: position %d holds %+v", step, id, hop, e.pos[hop], r)
			}
		}
	}
}

// churnTable drives a state through every operation that edits the live
// task table — Add, UndoAdd, Remove, SetPart, an engine rollback, an Apply that replaces channels and one that rolls back, and
// Clone (continuing on the clone) — plus the sweep's summary verdict,
// which may rescan a link, with channels that sometimes cross one link
// twice and sometimes hold no partition yet, and calls check after every
// step. A rolled-back Apply must leave the state bit-identical (rawState).
// capacity draws each new channel's C and P.
func churnTable(t *testing.T, seed int64, capacity func(*rand.Rand) (c, p int64), check func(step int, st *State[int, *toyChan, int64])) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	e := NewEngine(hopOps, Config{})
	st := NewState(hopOps)
	var live []ID
	pick := func() *toyChan { return st.Get(live[rng.Intn(len(live))]) }
	for step := 0; step < 3000; step++ {
		switch r := rng.Intn(23); {
		case r < 7 || len(live) == 0:
			links := make([]int, 1+rng.Intn(3))
			for k := range links {
				links[k] = rng.Intn(12)
			}
			c, p := capacity(rng)
			ch := &toyChan{id: st.AllocID(), c: c, p: p, links: links}
			if rng.Intn(2) == 0 {
				ch.part = int64(1 + rng.Intn(30)) // restored with a partition
			}
			st.Add(ch)
			live = append(live, ch.id)
		case r < 9:
			if last := live[len(live)-1]; st.order[len(st.order)-1] == last {
				st.UndoAdd(st.Get(last))
				live = live[:len(live)-1]
			}
		case r < 13:
			k := rng.Intn(len(live))
			st.Remove(live[k])
			live = append(live[:k], live[k+1:]...)
		case r < 17:
			st.SetPart(pick(), int64(1+rng.Intn(30)))
		case r < 19:
			var undo []partUndo[*toyChan, int64]
			for k := 0; k < 3; k++ {
				en := st.channels[pick().id]
				undo = append(undo, partUndo[*toyChan, int64]{e: en, old: en.ch.part})
				st.setPart(en, int64(1+rng.Intn(30)))
			}
			slices.Reverse(undo) // a channel picked twice restores its oldest partition last
			e.ReplaceState(st)
			e.undo = undo
			e.rollback()
		case r < 20:
			st.verdict(int32(rng.Intn(len(st.keys))))
		case r < 22:
			// Replace up to three live channels with up to two new ones,
			// repartitioning every channel on the touched links to D = P
			// (at least C, and clear of overflow). A doomed step's new
			// channels cross their first link twice at C = P, so it is
			// refused (U = 2); the other one commits whatever verifies.
			doomed := r == 20
			remove := slices.Clone(live)
			rng.Shuffle(len(remove), func(a, b int) { remove[a], remove[b] = remove[b], remove[a] })
			remove = remove[:rng.Intn(min(3, len(remove))+1)]
			n := 1 + rng.Intn(2)
			mk := func(_ int, id ID) *toyChan {
				c, p := capacity(rng)
				l := rng.Intn(12)
				if doomed {
					return &toyChan{id: id, c: c, p: c, links: []int{l, l}}
				}
				return &toyChan{id: id, c: c, p: p, links: []int{l, rng.Intn(12)}}
			}
			scheme := toyScheme(true, func(ch *toyChan) int64 {
				return max(min(ch.p, math.MaxInt64/2), ch.c)
			})
			e.ReplaceState(st)
			before := rawState(st)
			chs, rej := e.Apply(remove, n, mk, scheme)
			if doomed {
				if rej == nil {
					t.Fatalf("step %d: a doomed Apply committed", step)
				}
				if after := rawState(st); after != before {
					t.Fatalf("step %d: rolled-back Apply changed the state:\n before %s\n after  %s", step, before, after)
				}
			} else if rej == nil {
				live = slices.DeleteFunc(live, func(id ID) bool { return slices.Contains(remove, id) })
				for _, ch := range chs {
					live = append(live, ch.id)
				}
			}
		default:
			st = st.Clone()
		}
		check(step, st)
	}
}

// rawState renders everything a rolled-back decision must restore: the
// order slice with every channel's slot and hop positions, the loaded-link
// count, the ID allocator and every link's state as laid out
// (linkState): tombstones, dead counts, class tables and their staleness.
func rawState(st *State[int, *toyChan, int64]) string {
	var b strings.Builder
	fmt.Fprintf(&b, "next=%d loaded=%d order=%v|", st.nextID, st.loaded, st.order)
	for at, id := range st.order {
		if e, ok := st.channels[id]; ok && e.at == at {
			fmt.Fprintf(&b, "%d@%d:%v:%v:%d;", id, at, e.idx, e.pos, e.ch.part)
		}
	}
	return b.String() + linkState(st, true)
}

// liveState renders what a decision commits, leaving out how it is held
// (dead order slots, tombstones, compaction, class tables): the channels
// in establishment order with their partitions, every link's live state,
// and the ID allocator.
func liveState(st *State[int, *toyChan, int64]) string {
	var b strings.Builder
	fmt.Fprintf(&b, "next=%d loaded=%d|", st.nextID, st.loaded)
	for _, ch := range st.Channels() {
		fmt.Fprintf(&b, "%d:%v:%d;", ch.id, ch.links, ch.part)
	}
	return b.String() + linkState(st, false)
}

// linkState renders each link's load, utilization, summary (unexported
// fields included) and hops with their tasks. The utilization renders as
// its reduced rational: a refused decision may leave a link's sum over a
// grown lcm denominator, but never at a different value. raw adds the slot layout: a
// tombstone renders as "+", followed by the dead count and the class
// table, or "stale" for a stale one, whose content means nothing. A link a decision interned stays interned, empty, as
// documented; an empty link is not rendered.
func linkState(st *State[int, *toyChan, int64], raw bool) string {
	var b strings.Builder
	for i := range st.keys {
		if st.loads[i] == 0 && st.utilSum[i].Rat().Sign() == 0 && st.sums[i] == (edf.Summary{}) && (!raw || len(st.byLink[i]) == 0) {
			continue
		}
		fmt.Fprintf(&b, "|%d:%d:%v:%+v:", st.keys[i], st.loads[i], st.utilSum[i], st.sums[i])
		for j, r := range st.byLink[i] {
			switch {
			case r.e != nil:
				fmt.Fprintf(&b, "%d.%d=%v,", r.e.ch.id, r.hop, st.tasks[i][j])
			case raw:
				b.WriteString("+,")
			}
		}
		if cs := &st.classes[i]; raw && cs.Stale() {
			fmt.Fprintf(&b, "dead=%d:stale", st.dead[i])
		} else if raw {
			fmt.Fprintf(&b, "dead=%d:%+v", st.dead[i], cs.All())
		}
	}
	return b.String()
}

// TestTaskTableMatchesRebuild checks the live task table against a
// rebuild after every churnTable step.
func TestTaskTableMatchesRebuild(t *testing.T) {
	churnTable(t, 5, func(*rand.Rand) (int64, int64) { return 1, 50 }, func(step int, st *State[int, *toyChan, int64]) {
		checkTaskTable(t, step, st)
	})
}

// TestLinkSummaryMatchesRebuild checks every link's live summary after
// every churnTable step, with capacities up to near the int64 ceiling:
// sum C (saturating), the D < P count and U > 1 equal a fresh
// computation over the link's tasks, and the shortest period and
// deadline are at most the true minima — exactly them unless the summary
// reports itself loose. A placeholder task (D = 0) takes no part in the
// deadline fields.
func TestLinkSummaryMatchesRebuild(t *testing.T) {
	capacity := func(rng *rand.Rand) (int64, int64) {
		c := []int64{1, 3, math.MaxInt64 / 3, math.MaxInt64 - 1}[rng.Intn(4)]
		p := []int64{5, 50, math.MaxInt64}[rng.Intn(3)]
		return c, p
	}
	churnTable(t, 9, capacity, func(step int, st *State[int, *toyChan, int64]) {
		for i := range st.tasks {
			tasks := slices.DeleteFunc(slices.Clone(st.tasks[i]), edf.Empty)
			s := &st.sums[i]
			short := 0
			minP, minD := int64(math.MaxInt64), int64(math.MaxInt64)
			for _, task := range tasks {
				minP = min(minP, task.P)
				if task.D == 0 {
					continue
				}
				if task.D < task.P {
					short++
				}
				minD = min(minD, task.D)
			}
			if s.SumC() != edf.TotalCapacity(tasks) || s.ShortDeadlines() != short || s.Over != edf.UtilizationExceedsOne(tasks) {
				t.Fatalf("step %d: link %d: sum C %d, D < P %d, over %v; rebuild %d, %d, %v",
					step, st.keys[i], s.SumC(), s.ShortDeadlines(), s.Over, edf.TotalCapacity(tasks), short, edf.UtilizationExceedsOne(tasks))
			}
			if s.MinP() > minP || s.MinD() > minD || (!s.Loose() && (s.MinP() != minP || s.MinD() != minD)) {
				t.Fatalf("step %d: link %d: min P %d, min D %d (loose %v); true minima %d, %d",
					step, st.keys[i], s.MinP(), s.MinD(), s.Loose(), minP, minD)
			}
		}
	})
}

// TestFreshChannelLinksAllChange pins what lets a decision treat a new
// channel like any other: its placeholder tasks (D = 0) differ from the
// tasks of every valid partition, so its first setPart moves every link
// it loads, a link it crosses twice included, even in a decision that
// did not add it.
func TestFreshChannelLinksAllChange(t *testing.T) {
	st := NewState(toyOps)
	st.Add(toy(st, 1, 50, 1, 2))
	ch := &toyChan{id: st.AllocID(), c: 1, p: 50, links: []int{2, 3, 2}}
	st.Add(ch)
	st.begin()
	defer st.end()
	st.setPart(st.channels[ch.id], ch.c)
	for _, l := range []int{1, 2, 3} {
		if moved := st.isMoved(st.index[l]); moved != (l != 1) {
			t.Fatalf("link %d moved = %v after partitioning a fresh channel on links %v", l, moved, ch.links)
		}
	}
	if st.sums[st.index[2]].Loose() {
		t.Fatal("partitioning a fresh channel loosened its link's summary")
	}
}

// TestRepartitionSweepZeroAllocs pins a whole repartition-and-verify
// round at 0 allocs/op: SetPart on every channel overwrites its tasks in
// place and patches the link summaries, and the sweep over the changed
// links reads the live table.
func TestRepartitionSweepZeroAllocs(t *testing.T) {
	e := newToyEngine(Config{})
	changed := loadVerifyState(t, e, 10)
	chs := e.state.Channels()
	d := int64(40)
	if avg := testing.AllocsPerRun(100, func() {
		// Alternate 40 and 41, so every link moves and no sweep skips one:
		// at 40 every link walks its demand (busy period 40), at 41 its
		// summary answers after a rescan (raising every deadline loosened
		// the bound).
		d = 81 - d
		for _, ch := range chs {
			e.state.SetPart(ch, d)
		}
		before := e.sweepSkips
		if rej := e.verify(changed); rej != nil {
			t.Fatalf("sweep rejected: %v", rej.Result)
		}
		if e.sweepSkips != before {
			t.Fatalf("sweep skipped %d links, want the test on all %d", e.sweepSkips-before, len(changed))
		}
	}); avg != 0 {
		t.Errorf("repartition + verify sweep allocates %.1f allocs/op, want 0", avg)
	}
}

// TestRefIsTwoWords pins a hop's ref at two words: the repartition walk
// reads every ref of a touched link, and compaction moves every live one,
// which on a trunk carrying thousands of channels costs in proportion to
// the ref's size.
func TestRefIsTwoWords(t *testing.T) {
	if got, want := unsafe.Sizeof(ref[*toyChan]{}), 2*unsafe.Sizeof(uintptr(0)); got != want {
		t.Fatalf("ref is %d bytes, want %d", got, want)
	}
}
