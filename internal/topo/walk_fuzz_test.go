package topo

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/edf"
)

// chanView is one committed channel as FuzzKernelWalkMatchesPartition
// compares it: its links in hop order and, per hop, the deadline under
// the partition it holds and under the scheme's full-state Partition.
type chanView struct {
	id         core.ChannelID
	links      []any
	c, p       int64
	held, full []int64
}

// walkPlane is one load-adaptive admission plane under churn. apply is
// one atomic decision, each one verdict per request (0 for a refused
// one) and release a pure removal; snapshot lists every committed
// channel.
type walkPlane struct {
	apply    func(remove []core.ChannelID, reqs []core.Req) ([]core.ChannelID, error)
	each     func(reqs []core.Req) []core.ChannelID
	release  func(core.ChannelID) error
	snapshot func() []chanView
}

// walkStar is an ADPS star controller.
func walkStar() walkPlane {
	c := core.NewController(core.Config{DPS: core.ADPS{}})
	return walkPlane{
		apply: func(remove []core.ChannelID, reqs []core.Req) ([]core.ChannelID, error) {
			chs, err := c.Apply(remove, reqs)
			ids := make([]core.ChannelID, len(chs))
			for i, ch := range chs {
				ids[i] = ch.ID
			}
			return ids, err
		},
		each: func(reqs []core.Req) []core.ChannelID {
			chs, _ := c.AdmitEach(nil, reqs)
			ids := make([]core.ChannelID, len(chs))
			for i, ch := range chs {
				if ch != nil {
					ids[i] = ch.ID
				}
			}
			return ids
		},
		release: c.Release,
		snapshot: func() (out []chanView) {
			full := core.ADPS{}.Partition(c.State())
			for _, ch := range c.State().Channels() {
				v := chanView{id: ch.ID, c: ch.Spec.C, p: ch.Spec.P, links: []any{core.Uplink(ch.Spec.Src)}}
				sinks := ch.Sinks
				if !ch.Multicast() {
					sinks = []core.NodeID{ch.Spec.Dst}
				}
				for _, s := range sinks {
					v.links = append(v.links, core.Downlink(s))
				}
				for hop := range v.links {
					held, fresh := ch.Part.Up, full[ch.ID].Up
					if hop > 0 {
						held, fresh = ch.Part.Down, full[ch.ID].Down
					}
					v.held, v.full = append(v.held, held), append(v.full, fresh)
				}
				out = append(out, v)
			}
			return out
		},
	}
}

// walkFabric is an H-ADPS controller on a topology.
func walkFabric(top *Topology) walkPlane {
	c := NewController(top, Config{DPS: HADPS{}})
	return walkPlane{
		apply: func(remove []core.ChannelID, reqs []core.Req) ([]core.ChannelID, error) {
			chs, err := c.Apply(remove, reqs)
			ids := make([]core.ChannelID, len(chs))
			for i, ch := range chs {
				ids[i] = ch.ID
			}
			return ids, err
		},
		each: func(reqs []core.Req) []core.ChannelID {
			chs, _ := c.AdmitEach(nil, reqs)
			ids := make([]core.ChannelID, len(chs))
			for i, ch := range chs {
				if ch != nil {
					ids[i] = ch.ID
				}
			}
			return ids
		},
		release: c.Release,
		snapshot: func() (out []chanView) {
			full := HADPS{}.Partition(c.State())
			for _, ch := range c.State().Channels() {
				v := chanView{id: ch.ID, c: ch.Spec.C, p: ch.Spec.P, held: slices.Clone(ch.Hops), full: full[ch.ID]}
				for _, e := range ch.Route {
					v.links = append(v.links, e)
				}
				out = append(out, v)
			}
			return out
		},
	}
}

// FuzzKernelWalkMatchesPartition runs random churn on a random star under
// ADPS or a random fabric under H-ADPS — unicast requests and multicast
// trees, alone, in atomic groups, in AdmitEach groups whose bisection
// rolls sub-decisions back, as replacements (an atomic Apply releasing
// one or two channels) and as releases — and checks the kernel's
// repartition walk against the scheme's full-state Partition after every
// step:
//
//   - after a committed decision, every channel on a link the decision
//     touched holds the Partition value;
//   - the one exception is a pure removal whose repartition was kept
//     back: then every channel holds the partition it held before, and
//     the Partition values would fail the EDF test on a link of a
//     channel crossing a touched link;
//   - a refused decision leaves every partition as it was.
func FuzzKernelWalkMatchesPartition(f *testing.F) {
	for seed := int64(0); seed < 4; seed++ {
		f.Add(seed, false)
		f.Add(seed, true)
	}
	f.Fuzz(func(t *testing.T, seed int64, fabric bool) {
		rng := rand.New(rand.NewSource(seed))
		p, nodes := walkStar(), 3+rng.Intn(6)
		if fabric {
			var top *Topology
			top, nodes = randomFabric(rng)
			p = walkFabric(top)
		}
		node := func() core.NodeID { return core.NodeID(1 + rng.Intn(nodes)) }
		req := func() core.Req {
			src := node()
			dst := node()
			for dst == src {
				dst = node()
			}
			c := int64(1 + rng.Intn(3))
			per := int64(20 + rng.Intn(100))
			r := core.Req{Spec: core.ChannelSpec{Src: src, Dst: dst, C: c, P: per, D: 6*c + rng.Int63n(per-6*c+1)}}
			if nodes > 3 && rng.Intn(4) == 0 {
				r.Sinks = []core.NodeID{dst}
				for want := 2 + rng.Intn(2); len(r.Sinks) < want; {
					if s := node(); s != src && !slices.Contains(r.Sinks, s) {
						r.Sinks = append(r.Sinks, s)
					}
				}
			}
			return r
		}
		reqs := func(n int) []core.Req {
			out := make([]core.Req, n)
			for i := range out {
				out[i] = req()
			}
			return out
		}
		var live []core.ChannelID
		for step := 0; step < 150; step++ {
			before := p.snapshot()
			linksOf := map[core.ChannelID][]any{}
			for _, v := range before {
				linksOf[v.id] = v.links
			}
			var remove, added []core.ChannelID
			switch op := rng.Intn(10); {
			case op < 3 && len(live) > 0:
				remove = []core.ChannelID{live[rng.Intn(len(live))]}
				if err := p.release(remove[0]); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
			case op < 5:
				for _, id := range p.each(reqs(2 + rng.Intn(3))) {
					if id != 0 {
						added = append(added, id)
					}
				}
			default:
				if op < 7 && len(live) > 0 {
					remove = append(remove, live[rng.Intn(len(live))])
					if k := rng.Intn(len(live)); op == 6 && !slices.Contains(remove, live[k]) {
						remove = append(remove, live[k])
					}
				}
				ids, err := p.apply(remove, reqs(1+rng.Intn(2)))
				if err != nil {
					remove = nil
				}
				added = ids
			}
			live = slices.DeleteFunc(live, func(id core.ChannelID) bool { return slices.Contains(remove, id) })
			live = append(live, added...)
			after := p.snapshot()
			if len(remove) == 0 && len(added) == 0 {
				checkHeld(t, step, "a refused decision", before, after)
				continue
			}

			touched := map[any]bool{}
			for _, id := range remove {
				for _, l := range linksOf[id] {
					touched[l] = true
				}
			}
			for _, v := range after {
				if slices.Contains(added, v.id) {
					for _, l := range v.links {
						touched[l] = true
					}
				}
			}
			var stale []core.ChannelID
			for _, v := range after {
				if !slices.Equal(v.held, v.full) && slices.ContainsFunc(v.links, func(l any) bool { return touched[l] }) {
					stale = append(stale, v.id)
				}
			}
			switch {
			case len(stale) == 0:
			case len(added) > 0:
				t.Fatalf("step %d: channels %v on the touched links do not hold the full-state Partition", step, stale)
			default:
				checkHeld(t, step, "a kept-back removal", before, after)
				if !partitionFails(after, touched) {
					t.Fatalf("step %d: removal of %v kept back channels %v, but the full-state Partition passes every link it would move", step, remove, stale)
				}
			}
		}
	})
}

// checkHeld fails t unless every channel in after holds the partition it
// held in before.
func checkHeld(t *testing.T, step int, what string, before, after []chanView) {
	t.Helper()
	held := map[core.ChannelID][]int64{}
	for _, v := range before {
		held[v.id] = v.held
	}
	for _, v := range after {
		if !slices.Equal(v.held, held[v.id]) {
			t.Fatalf("step %d: after %s channel %d holds %v, held %v", step, what, v.id, v.held, held[v.id])
		}
	}
}

// partitionFails reports whether installing the full-state Partition on
// every channel crossing one of the touched links, as the removal's
// repartition would, fails the EDF test on a link of such a channel.
func partitionFails(chs []chanView, touched map[any]bool) bool {
	tasks := map[any][]edf.Task{}
	swept := map[any]bool{}
	for _, v := range chs {
		d := v.held
		if slices.ContainsFunc(v.links, func(l any) bool { return touched[l] }) {
			d = v.full
			for _, l := range v.links {
				swept[l] = true
			}
		}
		for hop, l := range v.links {
			tasks[l] = append(tasks[l], edf.Task{C: v.c, P: v.p, D: d[hop]})
		}
	}
	for l := range swept {
		if !edf.TestDefault(tasks[l]).OK() {
			return true
		}
	}
	return false
}
