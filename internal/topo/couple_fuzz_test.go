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
	request  func(core.ChannelSpec) (core.ChannelID, error)
	release  func(core.ChannelID) error
	links    func(core.ChannelSpec) []any // the links a request would load
	channels func() [][]any               // every committed channel's links
	tasks    func() map[any][]edf.Task    // every loaded link's task set
	named    func(error) (any, bool)      // the link a rejection names
}

// starPlane is an ADPS star controller.
func starPlane() plane {
	c := core.NewController(core.Config{DPS: core.ADPS{}})
	links := func(s core.ChannelSpec) []any { ls := core.LinksOf(s); return []any{ls[0], ls[1]} }
	return plane{
		request: func(s core.ChannelSpec) (core.ChannelID, error) {
			ch, err := c.Request(s)
			if err != nil {
				return 0, err
			}
			return ch.ID, nil
		},
		release: c.Release,
		links:   links,
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
	return plane{
		request: func(s core.ChannelSpec) (core.ChannelID, error) {
			ch, err := c.Request(s)
			if err != nil {
				return 0, err
			}
			return ch.ID, nil
		},
		release: c.Release,
		links: func(s core.ChannelSpec) []any {
			route, _, _, _ := top.RouteOf(Req{Spec: s})
			return edges(route)
		},
		channels: func() (out [][]any) {
			for _, ch := range c.State().Channels() {
				out = append(out, edges(ch.Route))
			}
			return out
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
// ADPS or a random fabric under H-ADPS and checks after every step that
// every loaded link passes a from-scratch EDF test, and that every
// rejection names a link of the request or of a committed channel sharing
// a link with it: a release, even one whose repartition is kept back,
// never couples decisions on links it does not reach.
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
			if len(live) > 0 && rng.Intn(3) == 0 {
				k := rng.Intn(len(live))
				if err := p.release(live[k]); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				live = append(live[:k], live[k+1:]...)
			} else {
				src := core.NodeID(1 + rng.Intn(nodes))
				dst := core.NodeID(1 + rng.Intn(nodes-1))
				if dst >= src {
					dst++
				}
				c := int64(1 + rng.Intn(3))
				per := int64(20 + rng.Intn(100))
				spec := core.ChannelSpec{Src: src, Dst: dst, C: c, P: per, D: 2*c + rng.Int63n(per-2*c+1)}
				near := map[any]bool{}
				for _, l := range p.links(spec) {
					near[l] = true
				}
				var far []any
				for _, links := range p.channels() {
					if slices.ContainsFunc(links, func(l any) bool { return near[l] }) {
						far = append(far, links...)
					}
				}
				for _, l := range far {
					near[l] = true
				}
				id, err := p.request(spec)
				if err == nil {
					live = append(live, id)
				} else if l, ok := p.named(err); ok && !near[l] {
					t.Fatalf("step %d: %v refused on %v, outside its neighbourhood: %v", step, spec, l, err)
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
