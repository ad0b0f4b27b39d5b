package admit

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/edf"
)

func toy(st *State[int, *toyChan, int64], c, p int64, links ...int) *toyChan {
	return &toyChan{id: st.AllocID(), c: c, p: p, links: links, part: p}
}

// TestDrainedLinkKeepsIndex drains a link to load 0 through Remove and
// through UndoAdd, reloads it, and checks it keeps its dense index, its
// per-link tables restart from an exact zero, and its generation stamps
// never repeat.
func TestDrainedLinkKeepsIndex(t *testing.T) {
	st := NewState(toyOps)
	a := toy(st, 1, 3, 7, 3)
	st.Add(a)
	i7 := st.index[7]
	gens := []uint64{st.gens[i7]}
	stamp := func(what string) {
		t.Helper()
		g := st.gens[i7]
		if g <= gens[len(gens)-1] {
			t.Fatalf("%s: generation %d after %v, want strictly increasing", what, g, gens)
		}
		gens = append(gens, g)
	}

	st.Remove(a.id)
	stamp("remove")
	if st.LinkLoad(7) != 0 || st.LoadedLinks() != 0 || len(st.Links()) != 0 || st.TasksOn(7) != nil {
		t.Fatalf("drained state: load %d, loaded %d, links %v, tasks %v",
			st.LinkLoad(7), st.LoadedLinks(), st.Links(), st.TasksOn(7))
	}
	if st.utilSum[i7].Sign() != 0 || st.sums[i7] != (edf.Summary{}) {
		t.Fatalf("drained link keeps utilization %v (summary %+v)", st.utilSum[i7], st.sums[i7])
	}

	b := toy(st, 2, 5, 7)
	st.Add(b)
	stamp("reload")
	if got := st.index[7]; got != i7 {
		t.Fatalf("reloaded link 7 has index %d, had %d", got, i7)
	}
	if len(st.keys) != 2 {
		t.Fatalf("reload interned a new index: keys %v", st.keys)
	}
	if st.utilSum[i7].Cmp(big.NewRat(2, 5)) != 0 || len(st.TasksOn(7)) != 1 {
		t.Fatalf("reloaded link: U=%v tasks %v, want 2/5 and one task", st.utilSum[i7], st.TasksOn(7))
	}

	c := toy(st, 1, 4, 7, 9)
	st.Add(c)
	stamp("add")
	i9 := st.index[9]
	st.UndoAdd(c)
	stamp("undo")
	if st.LinkLoad(9) != 0 || st.LoadedLinks() != 1 {
		t.Fatalf("after UndoAdd: load(9)=%d loaded=%d", st.LinkLoad(9), st.LoadedLinks())
	}
	st.Add(toy(st, 1, 4, 9))
	if st.index[9] != i9 {
		t.Fatalf("link 9 re-interned after UndoAdd: %d, had %d", st.index[9], i9)
	}
	st.SetPart(b, 6)
	stamp("setpart")
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
		out := fmt.Sprintf("len=%d next=%d loaded=%d gen=%d mean=%v|", s.Len(), s.NextID(), s.LoadedLinks(), s.genCtr, s.MeanLinkUtilization())
		for _, l := range s.Links() {
			i := s.index[l]
			out += fmt.Sprintf("%d:%d:%v:%v:%d:%v:%+v;", l, s.LinkLoad(l), s.utilSum[i], s.TasksOn(l), s.gens[i], s.ChannelsOn(l)[0].Ch.part, s.sums[i])
		}
		return out
	}
	before := fingerprint(st)
	keys := slices.Clone(st.keys)

	cp := st.Clone()
	first := cp.Channels()[0]
	cp.SetPart(first, 5)
	cp.setPartDiff(cp.Channels()[1], 7)
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

// TestReplaceStateMatchesFreshEngine gives an engine a history (verdict
// cache, slack history, interned links) on one state, swaps in a state
// assembled elsewhere whose links are interned in a different order,
// and requires every later decision — verdict, named link, diagnostic,
// LinksChecked and cache hits — to match a fresh engine handed an
// identical state. A per-link table surviving the swap would read
// another link's history.
func TestReplaceStateMatchesFreshEngine(t *testing.T) {
	schemes := []Scheme[int, *toyChan, int64]{constScheme(8)}
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
		used.Admit(1, func(_ int, id ID) *toyChan { return mk(id) }, schemes)
	}
	if len(used.slackHist) == 0 || used.LinksChecked() == 0 {
		t.Fatal("history engine built no history")
	}
	used.ReplaceState(assemble())
	if len(used.feasGen) != 0 || len(used.slackHist) != 0 {
		t.Fatalf("ReplaceState kept %d verdicts and %d slack entries of the old state", len(used.feasGen), len(used.slackHist))
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
		_, ru := used.Admit(1, gen, schemes)
		_, rf := fresh.Admit(1, gen, schemes)
		if checked, skips := fresh.LinksChecked()-c0, fresh.SweepSkips()-s0; skips > checked {
			t.Fatalf("decision %d: %d cache hits out of %d checks", i, skips, checked)
		}
		if (ru == nil) != (rf == nil) {
			t.Fatalf("decision %d: replaced engine rejected=%v, fresh rejected=%v", i, ru != nil, rf != nil)
		}
		if ru != nil && (ru.Link != rf.Link || ru.Result.String() != rf.Result.String()) {
			t.Fatalf("decision %d: replaced %v@%d, fresh %v@%d", i, ru.Result, ru.Link, rf.Result, rf.Link)
		}
		if i%5 == 4 {
			victim := fresh.State().Channels()[0].id
			used.Release(victim, schemes[0])
			fresh.Release(victim, schemes[0])
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
	scheme := func(st *State[int, *toyChan, int64], _ []int) map[ID]int64 {
		parts := make(map[ID]int64)
		for _, ch := range st.Channels() {
			parts[ch.id] = 10
			if ch.links[0] >= 40 {
				parts[ch.id] = 3 // two C=2 tasks cannot meet D=3
			}
		}
		return parts
	}
	_, rej := e.Admit(128, func(i int, id ID) *toyChan {
		return &toyChan{id: id, c: 2, p: 100, links: []int{63 - i%64}}
	}, []Scheme[int, *toyChan, int64]{scheme})
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

// checkTaskTable fails t unless every link's hop list is the per-link
// restriction of the establishment order, its task list equals a fresh
// Ops.Task pass over that hop list, and every position a channel entry
// records (and every Ref's pointer to it) names the hop's own slot.
func checkTaskTable(t *testing.T, step int, st *State[int, *toyChan, int64]) {
	t.Helper()
	want := make([][]Ref[*toyChan], len(st.keys))
	for _, ch := range st.Channels() {
		for hop, i := range st.channels[ch.id].idx {
			want[i] = append(want[i], Ref[*toyChan]{Ch: ch, Hop: hop})
		}
	}
	for i, refs := range st.byLink {
		if len(refs) != len(want[i]) || len(st.tasks[i]) != len(refs) || st.loads[i] != len(refs) {
			t.Fatalf("step %d: link %d: %d hops, %d tasks, load %d, want %d hops",
				step, st.keys[i], len(refs), len(st.tasks[i]), st.loads[i], len(want[i]))
		}
		for j, r := range refs {
			if r.Ch != want[i][j].Ch || r.Hop != want[i][j].Hop {
				t.Fatalf("step %d: link %d slot %d holds channel %d hop %d, establishment order has channel %d hop %d",
					step, st.keys[i], j, r.Ch.id, r.Hop, want[i][j].Ch.id, want[i][j].Hop)
			}
			if got, fresh := st.tasks[i][j], st.ops.Task(r.Ch, r.Hop); got != fresh {
				t.Fatalf("step %d: link %d slot %d: task %v, rebuild %v", step, st.keys[i], j, got, fresh)
			}
			if *r.pos != int32(j) {
				t.Fatalf("step %d: link %d slot %d: ref records position %d", step, st.keys[i], j, *r.pos)
			}
		}
	}
	for id, e := range st.channels {
		for hop, i := range e.idx {
			if r := st.byLink[i][e.pos[hop]]; r.Ch.id != id || r.Hop != hop || r.pos != &e.pos[hop] {
				t.Fatalf("step %d: channel %d hop %d: position %d holds channel %d hop %d", step, id, hop, e.pos[hop], r.Ch.id, r.Hop)
			}
		}
	}
}

// churnTable drives a state through every operation that edits the live
// task table — Add, UndoAdd, Remove, SetPart, setPartDiff, an engine
// rollback and Clone (continuing on the clone) — plus the sweep's summary
// verdict, which may rescan a link, with channels that sometimes cross
// one link twice and sometimes hold no partition yet, and calls check
// after every step. capacity draws each new channel's C and P.
func churnTable(t *testing.T, seed int64, capacity func(*rand.Rand) (c, p int64), check func(step int, st *State[int, *toyChan, int64])) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	e := NewEngine(hopOps, Config{})
	st := NewState(hopOps)
	var live []ID
	pick := func() *toyChan { return st.Get(live[rng.Intn(len(live))]) }
	for step := 0; step < 3000; step++ {
		switch r := rng.Intn(21); {
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
		case r < 15:
			st.SetPart(pick(), int64(1+rng.Intn(30)))
		case r < 17:
			st.setPartDiff(pick(), int64(1+rng.Intn(30)))
		case r < 19:
			var undo []partUndo[*toyChan, int64]
			for k := 0; k < 3; k++ {
				ch := pick()
				undo = append(undo, partUndo[*toyChan, int64]{ch: ch, old: ch.part})
				st.setPartDiff(ch, int64(1+rng.Intn(30)))
			}
			slices.Reverse(undo) // a channel picked twice restores its oldest partition last
			e.ReplaceState(st)
			e.rollback(undo)
		case r < 20:
			st.verdict(int32(rng.Intn(len(st.keys))))
		default:
			st = st.Clone()
		}
		check(step, st)
	}
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
		for i, tasks := range st.tasks {
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

// TestFreshChannelLinksAllChange pins what lets applyDelta treat a new
// channel like any other: its placeholder tasks (D = 0) differ from the
// tasks of every valid partition, so setPartDiff reports and re-stamps
// every link it loads, once per hop on a link it crosses twice.
func TestFreshChannelLinksAllChange(t *testing.T) {
	st := NewState(toyOps)
	st.Add(toy(st, 1, 50, 1, 2))
	ch := &toyChan{id: st.AllocID(), c: 1, p: 50, links: []int{2, 3, 2}}
	st.Add(ch)
	before := slices.Clone(st.gens)
	idx := st.channels[ch.id].idx
	if diff := st.setPartDiff(ch, ch.c); !slices.Equal(diff, idx) {
		t.Fatalf("setPartDiff on a fresh channel changed links %v, want every hop %v", diff, idx)
	}
	for _, i := range idx {
		if st.gens[i] <= before[i] {
			t.Fatalf("link %d kept generation %d", st.keys[i], st.gens[i])
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
		// Alternate 40 and 41, so no sweep is a cache hit: at 40 every link
		// walks its demand (busy period 40), at 41 its summary answers
		// after a rescan (raising every deadline loosened the bound).
		d = 81 - d
		for _, ch := range chs {
			e.state.SetPart(ch, d)
		}
		if rej := e.verify(changed); rej != nil {
			t.Fatalf("sweep rejected: %v", rej.Result)
		}
	}); avg != 0 {
		t.Errorf("repartition + verify sweep allocates %.1f allocs/op, want 0", avg)
	}
}
