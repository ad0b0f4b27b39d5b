package topo

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/edf"
)

// plane is one admission plane under churn, seen only through what
// FuzzReleaseNeverCouples checks. Link keys are core.Link on a star and
// Edge on a fabric.
type plane struct {
	// replace releases remove and admits spec in one atomic decision
	// (Apply); with nothing to remove it is a plain request.
	replace  func(remove []core.ChannelID, spec core.ChannelSpec) (core.ChannelID, error)
	release  func(core.ChannelID) error
	links    func(core.ChannelSpec) []any // the links a request would load
	linksOf  func(core.ChannelID) []any   // a committed channel's links, nil once gone
	channels func() [][]any               // every committed channel's links
	tasks    func() map[any][]edf.Task    // every loaded link's task set
	named    func(error) (any, bool)      // the link a rejection names
	// failover flips a random trunk of a fabric: a repair, or a failure
	// whose affected channels are released and re-admitted under their IDs
	// in one AdmitEach pass. It returns the channels the residual network
	// lost and, for each refused re-admission, the error with the
	// neighbourhood its named link must lie in. Nil on a star.
	failover func(*rand.Rand) (lost []core.ChannelID, refusals []refusal)
}

// refusal is one refused re-admission of a failover step.
type refusal struct {
	err  error
	near map[any]bool
}

// neighbourhood returns the links a rejection of a change loading seed
// may name: seed itself and every link of a committed channel sharing a
// link with it.
func neighbourhood(seed []any, channels [][]any) map[any]bool {
	near := map[any]bool{}
	for _, l := range seed {
		near[l] = true
	}
	var far []any
	for _, links := range channels {
		if slices.ContainsFunc(links, func(l any) bool { return near[l] }) {
			far = append(far, links...)
		}
	}
	for _, l := range far {
		near[l] = true
	}
	return near
}

// starPlane is an ADPS star controller.
func starPlane() plane {
	c := core.NewController(core.Config{DPS: core.ADPS{}})
	links := func(s core.ChannelSpec) []any { ls := core.LinksOf(s); return []any{ls[0], ls[1]} }
	return plane{
		replace: func(remove []core.ChannelID, s core.ChannelSpec) (core.ChannelID, error) {
			chs, err := c.Apply(remove, []core.Req{{Spec: s}})
			if err != nil {
				return 0, err
			}
			return chs[0].ID, nil
		},
		release: c.Release,
		links:   links,
		linksOf: func(id core.ChannelID) []any {
			if ch := c.State().Get(id); ch != nil {
				return links(ch.Spec)
			}
			return nil
		},
		channels: func() (out [][]any) {
			for _, ch := range c.State().Channels() {
				out = append(out, links(ch.Spec))
			}
			return out
		},
		tasks: func() map[any][]edf.Task {
			out := map[any][]edf.Task{}
			for _, l := range c.State().Links() {
				out[l] = c.State().TasksOn(l)
			}
			return out
		},
		named: func(err error) (any, bool) {
			var rej *core.RejectionError
			if errors.As(err, &rej) {
				return rej.Link, true
			}
			return nil, false
		},
	}
}

// fabricPlane is an H-ADPS controller on a topology.
func fabricPlane(top *Topology) plane {
	c := NewController(top, Config{DPS: HADPS{}})
	edges := func(route []Edge) []any {
		out := make([]any, len(route))
		for i, e := range route {
			out[i] = e
		}
		return out
	}
	channels := func() (out [][]any) {
		for _, ch := range c.State().Channels() {
			out = append(out, edges(ch.Route))
		}
		return out
	}
	return plane{
		replace: func(remove []core.ChannelID, s core.ChannelSpec) (core.ChannelID, error) {
			chs, err := c.Apply(remove, []Req{{Spec: s}})
			if err != nil {
				return 0, err
			}
			return chs[0].ID, nil
		},
		release: c.Release,
		links: func(s core.ChannelSpec) []any {
			route, _, _, _ := top.RouteOf(Req{Spec: s})
			return edges(route)
		},
		linksOf: func(id core.ChannelID) []any {
			if ch := c.State().Get(id); ch != nil {
				return edges(ch.Route)
			}
			return nil
		},
		channels: channels,
		failover: func(rng *rand.Rand) (lost []core.ChannelID, refusals []refusal) {
			g := top.Graph()
			a := SwitchID(rng.Intn(4)) // randomFabric builds at most four switches
			nbs := g.Neighbors(a)
			if len(nbs) == 0 {
				return nil, nil
			}
			b := nbs[rng.Intn(len(nbs))]
			if !g.LinkUp(a, b) {
				if _, err := top.SetLinkUp(a, b, true); err != nil {
					panic(err)
				}
				return nil, nil
			}
			if _, err := top.SetLinkUp(a, b, false); err != nil {
				panic(err)
			}
			var remove []core.ChannelID
			var reqs []Req
			var seed []any
			for _, ch := range c.State().Channels() {
				if crossesTrunk(ch.Route, a, b) {
					remove = append(remove, ch.ID)
					reqs = append(reqs, Req{Spec: ch.Spec, ID: ch.ID, KeepID: true})
					seed = append(seed, edges(ch.Route)...)
				}
			}
			before := channels()
			_, errs := c.AdmitEach(remove, reqs)
			for i, err := range errs {
				if err == nil {
					continue
				}
				lost = append(lost, reqs[i].ID)
				route, _, _, _ := top.RouteOf(reqs[i])
				refusals = append(refusals, refusal{err: err, near: neighbourhood(append(edges(route), seed...), before)})
			}
			return lost, refusals
		},
		tasks: func() map[any][]edf.Task {
			out := map[any][]edf.Task{}
			for _, e := range c.State().Edges() {
				out[e] = c.State().TasksOn(e)
			}
			return out
		},
		named: func(err error) (any, bool) {
			var rej *RejectionError
			if errors.As(err, &rej) {
				return rej.Edge, true
			}
			return nil, false
		},
	}
}

// randomFabric is a random tree of 2-4 switches, sometimes with one
// extra trunk, with 1-2 nodes per switch; it returns the node count.
func randomFabric(rng *rand.Rand) (*Topology, int) {
	top := NewTopology()
	switches := 2 + rng.Intn(3)
	for s := 0; s < switches; s++ {
		top.AddSwitch(SwitchID(s))
		if s > 0 {
			top.ConnectSwitches(SwitchID(rng.Intn(s)), SwitchID(s))
		}
	}
	if a, b := SwitchID(rng.Intn(switches)), SwitchID(rng.Intn(switches)); a != b && rng.Intn(2) == 0 {
		top.ConnectSwitches(a, b) // fails harmlessly on an existing trunk
	}
	nodes := 0
	for s := 0; s < switches; s++ {
		for k := 0; k < 1+rng.Intn(2); k++ {
			nodes++
			top.AttachNode(core.NodeID(nodes), SwitchID(s))
		}
	}
	return top, nodes
}

// FuzzReleaseNeverCouples runs random D <= P churn on a random star under
// ADPS or a random fabric under H-ADPS — requests, releases, replacements
// (one atomic Apply releasing one or two channels and admitting a new
// one) and, on fabrics, trunk failures recovered in one AdmitEach pass
// and repairs — and checks after every step that every loaded link passes
// a from-scratch EDF test, that every rejection names a link of the
// change or of a committed channel sharing a link with it, and that a
// refused replacement keeps every channel it would have released: a
// release, even one whose repartition is kept back, never couples
// decisions on links it does not reach.
func FuzzReleaseNeverCouples(f *testing.F) {
	for seed := int64(0); seed < 4; seed++ {
		f.Add(seed, false)
		f.Add(seed, true)
	}
	f.Fuzz(func(t *testing.T, seed int64, fabric bool) {
		rng := rand.New(rand.NewSource(seed))
		p, nodes := starPlane(), 3+rng.Intn(6)
		if fabric {
			var top *Topology
			top, nodes = randomFabric(rng)
			p = fabricPlane(top)
		}
		var live []core.ChannelID
		for step := 0; step < 200; step++ {
			switch op := rng.Intn(9); {
			case op < 3 && len(live) > 0:
				k := rng.Intn(len(live))
				if err := p.release(live[k]); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				live = append(live[:k], live[k+1:]...)
			case op == 3 && p.failover != nil:
				lost, refusals := p.failover(rng)
				for _, r := range refusals {
					if l, ok := p.named(r.err); ok && !r.near[l] {
						t.Fatalf("step %d: failover re-admission refused on %v, outside its neighbourhood: %v", step, l, r.err)
					}
				}
				live = slices.DeleteFunc(live, func(id core.ChannelID) bool { return slices.Contains(lost, id) })
			default:
				var remove []core.ChannelID
				if op >= 7 && len(live) > 0 {
					remove = append(remove, live[rng.Intn(len(live))])
					if k := rng.Intn(len(live)); op == 8 && !slices.Contains(remove, live[k]) {
						remove = append(remove, live[k])
					}
				}
				src := core.NodeID(1 + rng.Intn(nodes))
				dst := core.NodeID(1 + rng.Intn(nodes-1))
				if dst >= src {
					dst++
				}
				c := int64(1 + rng.Intn(3))
				per := int64(20 + rng.Intn(100))
				spec := core.ChannelSpec{Src: src, Dst: dst, C: c, P: per, D: 2*c + rng.Int63n(per-2*c+1)}
				seed := p.links(spec)
				for _, id := range remove {
					seed = append(seed, p.linksOf(id)...)
				}
				near := neighbourhood(seed, p.channels())
				id, err := p.replace(remove, spec)
				switch {
				case err == nil:
					live = slices.DeleteFunc(live, func(id core.ChannelID) bool { return slices.Contains(remove, id) })
					live = append(live, id)
				default:
					if l, ok := p.named(err); ok && !near[l] {
						t.Fatalf("step %d: %v refused on %v, outside its neighbourhood: %v", step, spec, l, err)
					}
					for _, id := range remove {
						if p.linksOf(id) == nil {
							t.Fatalf("step %d: refused replacement of %v cost channel %d its reservation", step, remove, id)
						}
					}
				}
			}
			for l, tasks := range p.tasks() {
				if res := edf.TestDefault(tasks); !res.OK() {
					t.Fatalf("step %d: committed state infeasible on %v: %v", step, l, res)
				}
			}
		}
	})
}
