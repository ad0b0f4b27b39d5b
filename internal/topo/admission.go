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
	topo    *Topology
	cfg     Config
	eng     *admit.Engine[Edge, *HChannel, []int64]
	schemes []admit.Scheme[Edge, *HChannel, []int64] // exactly one: fabrics have no fallback search
	stats   admit.Stats
}

// NewController builds a controller over a fixed topology.
func NewController(t *Topology, cfg Config) *Controller {
	if cfg.DPS == nil {
		cfg.DPS = HSDPS{}
	}
	cfg.Feasibility.SkipValidation = true
	c := &Controller{topo: t, cfg: cfg}
	c.eng = admit.NewEngine(topoOps, admit.Config{Feasibility: cfg.Feasibility})
	c.schemes = []admit.Scheme[Edge, *HChannel, []int64]{
		func(k *admit.State[Edge, *HChannel, []int64], touched []Edge) map[core.ChannelID][]int64 {
			return cfg.DPS.PartitionTouched(&State{k: k}, touched)
		},
	}
	return c
}

// State exposes the committed state (read-only for callers).
func (c *Controller) State() *State { return &State{k: c.eng.State()} }

// DPS returns the active partitioning scheme.
func (c *Controller) DPS() HDPS { return c.cfg.DPS }

// Stats returns a copy of the admission counters — the same struct and
// rejection classification the star controller reports.
func (c *Controller) Stats() admit.Stats {
	s := c.stats
	s.LinksChecked = c.eng.LinksChecked()
	s.Repartitions = c.eng.Repartitions()
	return s
}

// Repartitioned returns the IDs (ascending) of the channels whose hop
// budgets changed in the last successful Admit, AdmitEach or Release —
// the precise set a running simulation must re-sync. The slice is
// invalidated by the next state mutation.
func (c *Controller) Repartitioned() []core.ChannelID { return c.eng.Repartitioned() }

// LinksChecked returns the cumulative number of per-edge feasibility
// tests the controller has run (deterministic; see
// admit.Engine.LinksChecked).
func (c *Controller) LinksChecked() int { return c.eng.LinksChecked() }

// Repartitions returns the cumulative number of repartition passes the
// controller has run — one per admission decision (a batch counts once)
// plus one per release (see admit.Engine.Repartitions).
func (c *Controller) Repartitions() int { return c.eng.Repartitions() }

// SweepSkips returns how many of the LinksChecked feasibility answers
// came from the kernel's generation-keyed verdict cache instead of a
// fresh EDF analysis (see admit.Engine.SweepSkips).
func (c *Controller) SweepSkips() int { return c.eng.SweepSkips() }

// SweepNs returns the cumulative wall-clock nanoseconds the engine has
// spent inside verification sweeps (observability accounting; measured,
// not deterministic).
func (c *Controller) SweepNs() int64 { return c.eng.SweepNs() }

// Req is the one request type of the management plane — see core.Req.
type Req = core.Req

// prepare validates one request, routes it via the active router and
// checks the route-generalized deadline condition: every root→leaf path
// needs D >= hops*C. Failures are counted by cause. The result is the
// channel to decide on, still without budgets; its ID is set only for a
// KeepID request (instance fills in an allocated one otherwise).
func (c *Controller) prepare(r Req) (*HChannel, error) {
	if err := r.Validate(); err != nil {
		c.stats.RejectedInvalid++
		return nil, err
	}
	route, parents, leaves, err := c.topo.RouteOf(r)
	if err != nil {
		c.stats.RejectedNoRoute++
		return nil, err
	}
	if hops := Depth(route, parents, leaves); r.Spec.D < int64(hops)*r.Spec.C {
		c.stats.RejectedInvalid++
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
// failures. IDs start at 1, so 0 marks "allocate".
func instance(prepared *HChannel, id core.ChannelID) *HChannel {
	hc := *prepared
	if hc.ID == 0 {
		hc.ID = id
	}
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

// Admit routes and admission-tests a whole list of requests as one
// decision: every request is validated and routed (a multicast one as a
// shortest-path tree whose shared-prefix edges carry a single budget and
// a single task), all are added to one tentative state, partitioned once,
// and every affected edge verified once — one repartition instead of
// len(reqs). Either every channel commits (returned in request order) or
// none does, the committed state stays bit-identical, and the first
// failure is returned: a *core.ReqError for a request that fails
// validation or routing, a *RejectionError for the edge that failed.
func (c *Controller) Admit(reqs []Req) ([]*HChannel, error) {
	c.stats.Requests += len(reqs)
	prepared := make([]*HChannel, len(reqs))
	for i, r := range reqs {
		var err error
		if prepared[i], err = c.prepare(r); err != nil {
			return nil, &core.ReqError{Index: i, Err: err}
		}
	}
	if len(reqs) == 0 {
		return nil, nil
	}
	chs, rej := c.eng.Admit(len(reqs), func(i int, id core.ChannelID) *HChannel {
		return instance(prepared[i], id)
	}, c.schemes)
	if rej != nil {
		return nil, c.reject(rej)
	}
	c.stats.Accepted += len(reqs)
	return chs, nil
}

// AdmitEach decides a merged list with one verdict per request: every
// request is validated, routed and decided on its own (unlike Admit's
// all-or-nothing decision), while the kernel runs far fewer repartition
// passes than len(reqs) sequential requests — greedy bisection tries the
// whole group first and narrows down around failures
// (admit.Engine.AdmitEach, which also states the decision-equivalence
// contract with sequential submission). It is the primitive behind
// request coalescing and behind post-failure batch re-admission, where
// KeepID keeps released channels' IDs stable across the re-route.
//
// The returned slices are parallel to reqs: chs[i] is the committed
// channel when errs[i] is nil, and errs[i] is the request's validation
// or routing error, or a *RejectionError, otherwise.
func (c *Controller) AdmitEach(reqs []Req) ([]*HChannel, []error) {
	c.stats.Requests += len(reqs)
	chs := make([]*HChannel, len(reqs))
	errs := make([]error, len(reqs))
	valid := make([]int, 0, len(reqs))
	prepared := make([]*HChannel, 0, len(reqs))
	for i, r := range reqs {
		p, err := c.prepare(r)
		if errs[i] = err; err != nil {
			continue
		}
		valid = append(valid, i)
		prepared = append(prepared, p)
	}
	got, rejs := c.eng.AdmitEach(len(valid), func(vi int, id core.ChannelID) *HChannel {
		return instance(prepared[vi], id)
	}, c.schemes)
	for vi, i := range valid {
		if rejs[vi] != nil {
			errs[i] = c.reject(rejs[vi])
			continue
		}
		c.stats.Accepted++
		chs[i] = got[vi]
	}
	return chs, errs
}

// reject counts a kernel rejection and converts it to the public error.
func (c *Controller) reject(rej *admit.Rejection[Edge]) *RejectionError {
	c.stats.NoteRejection(rej.Result)
	return &RejectionError{Edge: rej.Link, Result: rej.Result}
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

// Release tears down a channel. The channels sharing an edge with it are
// repartitioned when that keeps every edge feasible; otherwise every
// remaining channel keeps its hop vector, until a later decision touches
// one of its edges and recomputes it as usual.
func (c *Controller) Release(id core.ChannelID) error {
	if !c.eng.Release(id, c.schemes[0]) {
		return fmt.Errorf("topo: release of unknown channel %d", id)
	}
	c.stats.Released++
	return nil
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
