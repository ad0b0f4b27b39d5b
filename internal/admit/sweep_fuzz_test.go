package admit

import (
	"cmp"
	"fmt"
	"slices"
	"testing"

	"repro/internal/edf"
)

// sortedEngine is the reference the verification sweep is checked
// against: the fully sorted sweep the engine ran before it sorted only
// the links its summaries leave open. Every changed link is sorted into
// sweep order up front; the moved marks and the summaries are asked in
// that order until a summary proves a link infeasible, and LinksChecked
// and SweepSkips cover the sorted prefix up to the failing link. It
// decides through sortedApply, Apply's copy.
//
// It also checks the skip rule itself: committed holds every link's task
// multiset as of the last commit, and a link the sweep skips must hold a
// sub-multiset of it (unsound names the first one that does not).
type sortedEngine struct {
	*Engine[int, *toyChan, int64]
	links     []int32
	skip      []bool
	results   []edf.Result
	ok        int // feasible prefix length of the last sweep
	committed map[int]map[edf.Task]int
	unsound   string
}

// commit records every link's task multiset as the last commit left it.
func (o *sortedEngine) commit() {
	st := o.state
	o.committed = map[int]map[edf.Task]int{}
	for _, l := range st.Links() {
		o.committed[l] = taskCounts(st.TasksOn(l))
	}
}

// taskCounts is a task multiset.
func taskCounts(tasks []edf.Task) map[edf.Task]int {
	m := map[edf.Task]int{}
	for _, t := range tasks {
		m[t]++
	}
	return m
}

// checkSkipped records link i as unsound unless it holds a sub-multiset
// of its committed tasks.
func (o *sortedEngine) checkSkipped(i int32) {
	l := o.state.keys[i]
	for t, n := range taskCounts(o.state.TasksOn(l)) {
		if n > o.committed[l][t] && o.unsound == "" {
			o.unsound = fmt.Sprintf("skipped link %d holds %d of task %+v, %d at the last commit", l, n, t, o.committed[l][t])
		}
	}
}

// sortedApply is Engine.Apply with the reference sweep.
func (o *sortedEngine) sortedApply(remove []ID, n int, mk func(i int, id ID) *toyChan, scheme Scheme[*toyChan, int64]) *Rejection[int] {
	e := o.Engine
	st := e.state
	chs := make([]*toyChan, n)
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
	rej := o.sortedVerify(e.changed)
	defer o.commit() // committed or rolled back, the state stands as committed
	if rej == nil || n == 0 {
		if rej == nil {
			for i := 0; i < o.ok; i++ {
				if !o.skip[i] {
					e.slackHist[o.links[i]] = o.results[i].MinSlack
				}
			}
		} else {
			e.rollback()
		}
		st.end()
		st.compact(e.cuts)
		return nil
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
	return rej
}

// sortedVerify is the fully sorted sweep.
func (o *sortedEngine) sortedVerify(changed []int32) *Rejection[int] {
	e := o.Engine
	st := e.state
	e.fit()
	links := append(o.links[:0], changed...)
	slices.SortFunc(links, func(a, b int32) int {
		if c := cmp.Compare(e.slackHist[a], e.slackHist[b]); c != 0 {
			return c
		}
		return cmp.Compare(st.rank[a], st.rank[b])
	})
	o.links = links
	skip := growBuf(o.skip, len(links))
	results := growBuf(o.results, len(links))
	var test []int32
	doomed := false
	for j, i := range links {
		skip[j] = !st.isMoved(i)
		if skip[j] {
			o.checkSkipped(i)
		}
		if skip[j] || doomed {
			continue
		}
		res, ok, _ := st.verdict(i)
		if ok && res.OK() {
			results[j] = res
			continue
		}
		test = append(test, int32(j))
		doomed = ok
	}
	o.skip, o.results = skip, results

	checked, rej := len(links), (*Rejection[int])(nil)
	for _, j := range test {
		i := links[j]
		res := st.test(i, e.cfg.Feasibility, &e.scratch)
		res.Utilization = st.utilization(i)
		results[j] = res
		if !res.OK() {
			checked, rej = int(j)+1, &Rejection[int]{Link: st.keys[i], Result: res}
			break
		}
	}
	e.linksChecked += checked
	o.ok = checked
	if rej != nil {
		o.ok = checked - 1
	}
	for i := 0; i < checked; i++ {
		if skip[i] {
			e.sweepSkips++
		}
	}
	return rej
}

// sweepFuzzOps is toyOps with every odd hop's deadline fixed at the
// period, whatever the partition: repartitioning a channel does not move
// those links, so the sweep skips them.
var sweepFuzzOps = func() *Ops[int, *toyChan, int64] {
	ops := *toyOps
	ops.Task = func(ch *toyChan, hop int) edf.Task {
		if hop%2 == 1 {
			return edf.Task{C: ch.c, P: ch.p, D: ch.p}
		}
		return edf.Task{C: ch.c, P: ch.p, D: ch.part}
	}
	return &ops
}()

// FuzzSweepMatchesSortedSweep drives random decisions — admissions of one
// to three channels over six links, removals, and both at once — through
// the engine and through the reference fully sorted sweep, and requires
// after every step the same verdict, rejecting link and Result, the same
// LinksChecked and SweepSkips, and the same slack history, and that every
// link the reference skipped held a sub-multiset of its committed tasks.
// Channels at C = P drive links past U > 1, which their summaries prove;
// odd hops ignore the partition, and removals only take tasks away, which
// makes skips; a small checkpoint cap sometimes makes a walk
// inconclusive.
func FuzzSweepMatchesSortedSweep(f *testing.F) {
	f.Add([]byte{0, 0, 7, 9, 12, 4, 13, 10, 30, 1, 2, 15, 0, 2, 0, 0, 3, 0, 0, 5})
	f.Add([]byte{5, 4, 20, 40, 3, 8, 31, 47, 8, 1, 3, 15, 0, 0, 14, 17, 9, 6, 2, 3, 7, 1, 11, 0})
	f.Add([]byte{0x42, 1, 0, 1, 1, 5, 6, 2, 2, 9, 12, 3, 3, 0, 1, 4, 2, 1, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		cfg := Config{Feasibility: edf.Options{SkipValidation: true, MaxCheckpoints: int(data[0]>>4) % 4}}
		adaptive, step := data[0]&1 == 1, int64(data[0]>>1)%4
		if !adaptive {
			step = 0 // a spec-only scheme reads no loads
		}
		deadline := map[ID]int64{} // each channel's requested deadline
		scheme := Scheme[*toyChan, int64]{
			Part: func(ch *toyChan, loads []int64, _ int64) int64 {
				var sum int64
				for _, l := range loads {
					sum += l
				}
				return max(ch.c, deadline[ch.id]-step*sum)
			},
			Adaptive: func() bool { return adaptive },
		}
		e := NewEngine(sweepFuzzOps, cfg)
		o := &sortedEngine{Engine: NewEngine(sweepFuzzOps, cfg)}
		o.commit()

		for k := 1; k+3 < len(data) && k < 1+4*48; k += 4 {
			b := data[k : k+4]
			var remove []ID
			n := 1 + int(b[0]/4)%3
			if kind := b[0] % 4; kind >= 2 {
				if live := e.State().Channels(); len(live) > 0 {
					remove = []ID{live[int(b[3])%len(live)].id}
				}
				if kind == 2 {
					n = 0
				}
			}
			p := 8 + int64(b[2]/8)%32
			c := 1 + int64(b[2])%8
			if b[2]%16 == 15 {
				c = p // a whole period: U > 1 beside any other channel
			}
			d := c + int64(b[3])%(2*p)
			mk := func(i int, id ID) *toyChan {
				first, hops := int(b[1]+byte(i))%6, 1+int(b[1]/6)%3
				links := make([]int, hops)
				for h := range links {
					links[h] = (first + h) % 6
				}
				deadline[id] = d
				return &toyChan{id: id, c: c, p: p, links: links}
			}
			_, got := e.Apply(remove, n, mk, scheme)
			want := o.sortedApply(remove, n, mk, scheme)

			if (got == nil) != (want == nil) {
				t.Fatalf("step %d: rejection %v, reference %v", k/4, got, want)
			}
			if got != nil && (got.Link != want.Link || !sameResult(got.Result, want.Result)) {
				t.Fatalf("step %d: rejected on %d with %+v, reference on %d with %+v", k/4, got.Link, got.Result, want.Link, want.Result)
			}
			if e.LinksChecked() != o.LinksChecked() || e.SweepSkips() != o.SweepSkips() {
				t.Fatalf("step %d: LinksChecked %d SweepSkips %d, reference %d and %d",
					k/4, e.LinksChecked(), e.SweepSkips(), o.LinksChecked(), o.SweepSkips())
			}
			e.fit()
			o.fit()
			if !slices.Equal(e.slackHist, o.slackHist) {
				t.Fatalf("step %d: slack history %v, reference %v", k/4, e.slackHist, o.slackHist)
			}
			if o.unsound != "" {
				t.Fatalf("step %d: %s", k/4, o.unsound)
			}
		}
	})
}

// sameResult compares every Result field, errors by message.
func sameResult(a, b edf.Result) bool {
	if (a.Err == nil) != (b.Err == nil) || (a.Err != nil && a.Err.Error() != b.Err.Error()) {
		return false
	}
	a.Err, b.Err = nil, nil
	return a == b
}
