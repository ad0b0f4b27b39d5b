package topo

import (
	"errors"
	"fmt"

	"repro/internal/admit"
	"repro/internal/core"
	"repro/internal/edf"
)

// ErrDeadlineTooShortForRoute generalizes condition (9): a channel
// crossing h store-and-forward hops needs D >= h*C.
var ErrDeadlineTooShortForRoute = errors.New("topo: deadline below hops*C for the route")

// RejectionError reports the edge that failed admission.
type RejectionError struct {
	Edge   Edge
	Result edf.Result
}

// Error implements error.
func (e *RejectionError) Error() string {
	return fmt.Sprintf("topo: channel not feasible on %v: %v", e.Edge, e.Result)
}

// Unwrap lets errors.Is match core.ErrInfeasible.
func (e *RejectionError) Unwrap() error { return core.ErrInfeasible }

// Config tunes the fabric admission controller.
type Config struct {
	// DPS is the hop partitioning scheme; nil means HSDPS.
	DPS HDPS
	// Feasibility passes through to the per-edge EDF test.
	Feasibility edf.Options
}

// Controller is the fabric-wide admission control: route, partition the
// deadline over the route's directed links, and verify EDF feasibility of
// every affected link — §18.3.2 generalized to many switches.
//
// The copy-on-write decision machinery is the shared kernel
// (internal/admit), the same engine the star controller runs on: a
// request mutates the live state tentatively, repartitions only the
// channels whose hop vectors can have moved, and rolls back on
// rejection.
type Controller struct {
	topo *Topology
	cfg  Config
	p    admit.Plane[Edge, *HChannel, []int64]
	seq  uint64 // the last HChannel.Seq handed out
}

// NewController builds a controller over a fixed topology.
func NewController(t *Topology, cfg Config) *Controller {
	if cfg.DPS == nil {
		cfg.DPS = HSDPS{}
	}
	cfg.Feasibility.SkipValidation = true
	c := &Controller{topo: t, cfg: cfg}
	c.p.Eng = admit.NewEngine(topoOps, admit.Config{Feasibility: cfg.Feasibility})
	c.p.Unknown = func(id core.ChannelID) error { return fmt.Errorf("topo: release of unknown channel %d", id) }
	c.p.Reject = func(rej *admit.Rejection[Edge]) error { return &RejectionError{Edge: rej.Link, Result: rej.Result} }
	c.p.Scheme = admit.Scheme[*HChannel, []int64]{Part: cfg.DPS.Split, Adaptive: cfg.DPS.LoadAdaptive}
	return c
}

// State exposes the committed state (read-only for callers).
func (c *Controller) State() *State { return &State{k: c.p.Eng.State()} }

// DPS returns the active partitioning scheme.
func (c *Controller) DPS() HDPS { return c.cfg.DPS }

// Stats returns a copy of the admission counters — the same struct and
// rejection classification the star controller reports.
func (c *Controller) Stats() admit.Stats { return c.p.Counters() }

// LinksChecked returns the cumulative number of per-edge feasibility
// tests the controller has run (deterministic; see
// admit.Engine.LinksChecked).
func (c *Controller) LinksChecked() int { return c.p.Eng.LinksChecked() }

// Repartitions returns the cumulative number of repartition passes the
// controller has run — one per decision, however many channels it
// releases and admits (see admit.Engine.Repartitions).
func (c *Controller) Repartitions() int { return c.p.Eng.Repartitions() }

// SweepSkips returns how many of the LinksChecked feasibility answers
// needed no EDF analysis, because the decision did not move the link
// (see admit.Engine.SweepSkips).
func (c *Controller) SweepSkips() int { return c.p.Eng.SweepSkips() }

// SweepNs returns the cumulative wall-clock nanoseconds the engine has
// spent inside verification sweeps (observability accounting; measured,
// not deterministic).
func (c *Controller) SweepNs() int64 { return c.p.Eng.SweepNs() }

// Req is the one request type of the management plane — see core.Req.
type Req = core.Req

// prepare validates one request, routes it via the active router and
// checks the route-generalized deadline condition: every root→leaf path
// needs D >= hops*C. Failures are counted by cause. The result is the
// channel to decide on, still without budgets; its ID is set only for a
// KeepID request (instance fills in an allocated one otherwise).
func (c *Controller) prepare(r Req) (*HChannel, error) {
	if err := r.Validate(); err != nil {
		c.p.Stats.RejectedInvalid++
		return nil, err
	}
	route, parents, leaves, err := c.topo.RouteOf(r)
	if err != nil {
		c.p.Stats.RejectedNoRoute++
		return nil, err
	}
	if hops := Depth(route, parents, leaves); r.Spec.D < int64(hops)*r.Spec.C {
		c.p.Stats.RejectedInvalid++
		return nil, fmt.Errorf("%w (D=%d, hops=%d, C=%d)",
			ErrDeadlineTooShortForRoute, r.Spec.D, hops, r.Spec.C)
	}
	hc := &HChannel{Spec: r.Spec, Route: route, Parents: parents, Leaves: leaves}
	if r.KeepID {
		hc.ID = r.ID
	}
	if r.Multicast() {
		hc.Sinks = append([]core.NodeID(nil), r.Sinks...)
	}
	return hc, nil
}

// instance returns a tentative copy of a prepared channel for the kernel,
// which may construct a request more than once while it narrows down
// failures. IDs start at 1, so 0 marks "allocate". Instances are numbered
// (Seq): the kernel commits them in the order it constructs them.
func (c *Controller) instance(prepared *HChannel, id core.ChannelID) *HChannel {
	hc := *prepared
	if hc.ID == 0 {
		hc.ID = id
	}
	c.seq++
	hc.Seq = c.seq
	return &hc
}

// Depth returns the hop count of the deepest root→leaf path of a route:
// its length for a unicast chain (nil parents), the longest walk from a
// leaf up to the root for a multicast tree.
func Depth(route []Edge, parents, leaves []int) int {
	if parents == nil {
		return len(route)
	}
	deepest := 0
	for _, leaf := range leaves {
		depth := 0
		for e := leaf; e >= 0; e = parents[e] {
			depth++
		}
		deepest = max(deepest, depth)
	}
	return deepest
}

// Apply releases the channels listed in remove (established and
// distinct) and routes and admits reqs — a multicast request as a
// shortest-path tree whose shared edges carry one budget and one task —
// as one atomic decision over the edges of both (admit.Plane.Apply): the
// new channels come back in request order, or nothing commits and the
// first failure is returned, a *core.ReqError for a request that fails
// validation or routing, a *RejectionError for the edge that failed. A
// KeepID request may reuse the ID of a channel it replaces.
func (c *Controller) Apply(remove []core.ChannelID, reqs []Req) ([]*HChannel, error) {
	prepare, mk := c.prepareAll(reqs)
	return c.p.Apply(remove, len(reqs), prepare, mk)
}

// prepareAll returns the plane's per-request hooks for reqs: prepare
// routes request i, and mk instantiates the prepared channel.
func (c *Controller) prepareAll(reqs []Req) (func(int) error, func(int, core.ChannelID) *HChannel) {
	prepared := make([]*HChannel, len(reqs))
	return func(i int) (err error) {
			prepared[i], err = c.prepare(reqs[i])
			return err
		}, func(i int, id core.ChannelID) *HChannel {
			return c.instance(prepared[i], id)
		}
}

// Admit is Apply of reqs with nothing to release.
func (c *Controller) Admit(reqs []Req) ([]*HChannel, error) { return c.Apply(nil, reqs) }

// AdmitEach releases the channels listed in remove and decides reqs with
// one verdict per request (admit.Plane.AdmitEach, by greedy bisection):
// the primitive behind request coalescing and behind failure recovery,
// which releases every affected channel and re-admits it in one pass,
// KeepID keeping its ID. The slices are parallel to reqs; errs[i] is the
// request's validation or routing error, or a *RejectionError.
func (c *Controller) AdmitEach(remove []core.ChannelID, reqs []Req) ([]*HChannel, []error) {
	prepare, mk := c.prepareAll(reqs)
	return c.p.AdmitEach(remove, len(reqs), prepare, mk)
}

// Request is Admit of one unicast channel.
func (c *Controller) Request(spec core.ChannelSpec) (*HChannel, error) {
	return core.One(c.Admit([]Req{{Spec: spec}}))
}

// RequestMulticast is Admit of one multicast tree: every tree edge
// admits, or the whole tree rolls back.
func (c *Controller) RequestMulticast(spec core.MulticastSpec) (*HChannel, error) {
	return core.One(c.Admit([]Req{spec.Req()}))
}

// RequestAll is Admit of a list of unicast channels, with a failing
// spec named in the error ("batch spec i (…)").
func (c *Controller) RequestAll(specs []core.ChannelSpec) ([]*HChannel, error) {
	reqs := core.Unicast(specs)
	chs, err := c.Admit(reqs)
	return chs, core.BatchError(reqs, err)
}

// Release tears down a channel: Apply with one removal. The channels
// sharing an edge with it are repartitioned when that keeps every edge
// feasible; otherwise every remaining channel keeps its hop vector, until
// a later decision touches one of its edges and recomputes it as usual.
func (c *Controller) Release(id core.ChannelID) error {
	_, err := c.Apply([]core.ChannelID{id}, nil)
	return err
}

// validateVector panics when a hop-budget vector violates the generalized
// conditions (8)/(9) — an HDPS bug, not an admission rejection. On a
// unicast chain the whole vector must sum to D; on a multicast tree
// every root→leaf path must sum to D.
func validateVector(ch *HChannel, v []int64) {
	if len(v) != len(ch.Route) {
		panic(fmt.Sprintf("topo: HDPS vector length %d for %d hops", len(v), len(ch.Route)))
	}
	for _, hop := range v {
		if hop < ch.Spec.C {
			panic(fmt.Sprintf("topo: hop budget %d below C=%d for %v", hop, ch.Spec.C, ch))
		}
	}
	if !ch.Multicast() {
		var sum int64
		for _, hop := range v {
			sum += hop
		}
		if sum != ch.Spec.D {
			panic(fmt.Sprintf("topo: hop budgets sum %d != D=%d for %v", sum, ch.Spec.D, ch))
		}
		return
	}
	for k := range ch.Sinks {
		var sum int64
		for e := ch.Leaves[k]; e >= 0; e = ch.parentOf(e) {
			sum += v[e]
		}
		if sum != ch.Spec.D {
			panic(fmt.Sprintf("topo: path budgets to sink %d sum %d != D=%d for %v", ch.Sinks[k], sum, ch.Spec.D, ch))
		}
	}
}

func equalVec(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
