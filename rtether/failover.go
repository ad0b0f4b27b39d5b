package rtether

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/topo"
)

// FailurePolicy selects the rung of the survivability ladder applied to
// a channel that cannot be re-admitted on the residual network after a
// trunk or switch failure (Network.SetLinkUp, Network.SetSwitchUp).
// Configure it with WithFailurePolicy; the default is FailReject.
type FailurePolicy uint8

const (
	// FailReject drops a channel the residual network cannot honor: its
	// reservation is gone and its handle closes. The default — the
	// network never over-promises and never touches other channels.
	FailReject FailurePolicy = iota
	// FailDegrade retries the re-admission once with a relaxed deadline
	// (twice the contracted D). A degraded channel keeps its ID and
	// handle; its committed spec — and so its delivery guarantee —
	// reports the relaxed deadline from then on. A channel that does
	// not fit even degraded is lost.
	FailDegrade
	// FailPreempt evicts strictly-lower-priority channels from the
	// saturated link — lowest ChannelSpec.Priority first, ties broken
	// by lowest ID — until the affected channel fits. Evicted victims
	// are lost; a channel with no viable victims is itself lost, and
	// then evicts nobody: an eviction commits only together with the
	// admission it makes room for. Priority ties never preempt:
	// equal-priority channels are safe from each other.
	FailPreempt
)

// String implements fmt.Stringer.
func (p FailurePolicy) String() string {
	switch p {
	case FailReject:
		return "reject"
	case FailDegrade:
		return "degrade"
	case FailPreempt:
		return "preempt"
	default:
		return fmt.Sprintf("policy(%d)", uint8(p))
	}
}

// FailoverOutcome classifies one channel's fate in a recovery pass.
type FailoverOutcome uint8

const (
	// Rerouted: re-admitted on a surviving route under the original
	// {P, C, D} contract. The handle stays valid.
	Rerouted FailoverOutcome = iota
	// Degraded: re-admitted on a surviving route with a relaxed
	// deadline (FailDegrade). The handle stays valid and reports the
	// new deadline.
	Degraded
	// Preempted: evicted under FailPreempt to make room for a
	// higher-priority channel. The handle is closed.
	Preempted
	// Lost: the residual network could not keep the channel under the
	// active policy. The reservation is released and the handle closed;
	// measurements survive, as for any released channel.
	Lost
)

// String implements fmt.Stringer.
func (o FailoverOutcome) String() string {
	switch o {
	case Rerouted:
		return "rerouted"
	case Degraded:
		return "degraded"
	case Preempted:
		return "preempted"
	case Lost:
		return "lost"
	default:
		return fmt.Sprintf("outcome(%d)", uint8(o))
	}
}

// ChannelOutcome records what happened to one channel during failure
// recovery.
type ChannelOutcome struct {
	// ID is the channel's network-unique identifier. Survivors keep it:
	// re-routing and degradation are ID-stable, so handles and
	// Report.Channels correlations remain valid across failures.
	ID ChannelID
	// Spec is the committed spec after recovery — the original contract
	// for Rerouted channels, the relaxed-deadline contract for Degraded
	// ones, the last committed contract for Preempted and Lost ones.
	Spec ChannelSpec
	// Outcome is the channel's fate.
	Outcome FailoverOutcome
	// NewD is the relaxed deadline committed for a Degraded channel;
	// zero otherwise.
	NewD int64
	// Err is the admission error that sealed a Lost channel's fate
	// (an *AdmissionError for feasibility losses, a routing error when
	// the residual network has no path); nil otherwise.
	Err error
}

// FailoverReport summarizes one failure-recovery pass: which channels
// the failed element carried and what became of each, plus any
// lower-priority victims preempted along the way. Repairs return an
// empty report — channels are not forcibly moved back onto repaired
// elements; they simply become routable again for future admissions.
type FailoverReport struct {
	// Affected is the number of established channels whose route
	// crossed the failed element.
	Affected int
	// Outcomes lists every affected channel in establishment order,
	// followed by preemption victims in eviction order.
	Outcomes []ChannelOutcome
}

// Count returns how many outcomes in the report have the given fate.
func (r *FailoverReport) Count(o FailoverOutcome) int {
	n := 0
	for _, oc := range r.Outcomes {
		if oc.Outcome == o {
			n++
		}
	}
	return n
}

// ErrNoFabric rejects trunk/switch mutations on star networks.
var ErrNoFabric = errors.New("rtether: trunk and switch failures require a multi-switch topology (see SetNodeLinkUp for star link failures)")

// ErrNoNodeLinks rejects node-link mutations on fabrics.
var ErrNoNodeLinks = errors.New("rtether: node-link failures are modeled on star networks; fail a trunk or switch on a fabric (SetLinkUp, SetSwitchUp)")

// SetLinkUp fails (up=false) or repairs (up=true) the trunk between
// switches a and b on a multi-switch network. Failing a trunk drops
// every frame in flight on it (counted as misses), then releases,
// re-routes and re-admits every channel whose route crossed it in one
// admission pass with per-channel verdicts; channels the residual
// network cannot honor go through the ladder configured with
// WithFailurePolicy. The report lists each affected channel's fate.
//
// Repairing a trunk makes it routable again for future admissions and
// returns an empty report; established channels stay on their current
// routes. Unknown trunks return an error; failing an already-down (or
// repairing an already-up) trunk is a no-op with an empty report.
func (n *Network) SetLinkUp(a, b SwitchID, up bool) (*FailoverReport, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, ErrClosed
	}
	rep, err := n.be.setLinkUp(a, b, up)
	if err != nil {
		return nil, err
	}
	n.applyFailover(rep)
	return rep, nil
}

// SetSwitchUp fails (up=false) or repairs (up=true) a whole switch on a
// multi-switch network: every trunk touching it and every node homed on
// it goes dark at once. Recovery follows the same batch re-admission
// and policy ladder as SetLinkUp — note that channels sourced or sunk
// at a dead switch have no residual route and are lost regardless of
// policy. Repair returns an empty report, as for SetLinkUp.
func (n *Network) SetSwitchUp(s SwitchID, up bool) (*FailoverReport, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, ErrClosed
	}
	rep, err := n.be.setSwitchUp(s, up)
	if err != nil {
		return nil, err
	}
	n.applyFailover(rep)
	return rep, nil
}

// SetNodeLinkUp fails or repairs the full-duplex link between an
// end-node and its switch on a star network. While down, frames
// crossing the link in either direction are dropped and RT data losses
// count as misses at their receivers; reservations are untouched — a
// star has no alternate path, so there is nothing to re-route
// (multi-switch networks model failures at trunks and switches
// instead; see SetLinkUp and SetSwitchUp).
func (n *Network) SetNodeLinkUp(id NodeID, up bool) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return ErrClosed
	}
	return n.be.setNodeLinkUp(id, up)
}

// applyFailover reconciles channel handles with a recovery report:
// survivors' cached specs pick up any relaxed deadline, and handles of
// channels that did not survive close exactly as on release.
func (n *Network) applyFailover(rep *FailoverReport) {
	for _, oc := range rep.Outcomes {
		switch oc.Outcome {
		case Rerouted, Degraded:
			if ch := n.handles[oc.ID]; ch != nil {
				ch.spec = oc.Spec
			}
		case Preempted, Lost:
			n.closeHandle(oc.ID)
		}
	}
}

// ---------------------------------------------------------------------------
// Star backend: no fabric to re-route over.

func (b *starBackend) setLinkUp(a, c SwitchID, up bool) (*FailoverReport, error) {
	return nil, ErrNoFabric
}

func (b *starBackend) setSwitchUp(s SwitchID, up bool) (*FailoverReport, error) {
	return nil, ErrNoFabric
}

func (b *starBackend) setNodeLinkUp(id NodeID, up bool) error {
	return b.inner.SetLinkUp(id, up)
}

// ---------------------------------------------------------------------------
// Fabric backend: graph mutation, batch re-admission, policy ladder.

func (b *fabricBackend) setNodeLinkUp(NodeID, bool) error { return ErrNoNodeLinks }

func (b *fabricBackend) setLinkUp(a, c SwitchID, up bool) (*FailoverReport, error) {
	changed, err := b.top.inner.SetLinkUp(a, c, up)
	if err != nil {
		return nil, err
	}
	if !changed {
		return &FailoverReport{}, nil
	}
	if up {
		b.refreshDeadEdges()
		return &FailoverReport{}, nil
	}
	return b.failAndRecover([]topo.Edge{
		{From: topo.SwitchEnd(a), To: topo.SwitchEnd(c)},
		{From: topo.SwitchEnd(c), To: topo.SwitchEnd(a)},
	}), nil
}

func (b *fabricBackend) setSwitchUp(s SwitchID, up bool) (*FailoverReport, error) {
	changed, err := b.top.inner.SetSwitchUp(s, up)
	if err != nil {
		return nil, err
	}
	if !changed {
		return &FailoverReport{}, nil
	}
	if up {
		b.refreshDeadEdges()
		return &FailoverReport{}, nil
	}
	g := b.top.inner.Graph()
	var dead []topo.Edge
	for _, nb := range g.Neighbors(s) {
		dead = append(dead,
			topo.Edge{From: topo.SwitchEnd(s), To: topo.SwitchEnd(nb)},
			topo.Edge{From: topo.SwitchEnd(nb), To: topo.SwitchEnd(s)})
	}
	for _, nd := range g.NodesAt(s) {
		dead = append(dead,
			topo.Edge{From: topo.NodeEnd(nd), To: topo.SwitchEnd(s)},
			topo.Edge{From: topo.SwitchEnd(s), To: topo.NodeEnd(nd)})
	}
	return b.failAndRecover(dead), nil
}

// edgeAlive reports whether a directed edge is usable under the graph's
// current failure state: both endpoint switches up, and for trunks the
// trunk itself up too.
func (b *fabricBackend) edgeAlive(e topo.Edge) bool {
	g := b.top.inner.Graph()
	switch {
	case !e.From.Switch:
		return g.SwitchUp(SwitchID(e.To.ID))
	case !e.To.Switch:
		return g.SwitchUp(SwitchID(e.From.ID))
	default:
		a, c := SwitchID(e.From.ID), SwitchID(e.To.ID)
		return g.SwitchUp(a) && g.SwitchUp(c) && g.LinkUp(a, c)
	}
}

// refreshDeadEdges re-derives the simulator's dead-edge set from the
// graph after a repair: edges that became usable again start carrying
// frames. An edge stays dead while any of its failure causes remains
// (a repaired trunk between a live and a dead switch stays dark).
func (b *fabricBackend) refreshDeadEdges() {
	for e := range b.deadEdges {
		if b.edgeAlive(e) {
			b.sim.SetLinkUp(e, true)
			delete(b.deadEdges, e)
		}
	}
}

// failAndRecover is the survivability core: mark the newly dead edges in
// the simulator (purging in-flight frames as misses), then release every
// established channel whose route crossed one and re-admit the whole group
// under their original IDs in one per-verdict pass, and walk the policy
// ladder for the ones the residual network rejected.
func (b *fabricBackend) failAndRecover(dead []topo.Edge) *FailoverReport {
	deadNow := make(map[topo.Edge]bool, len(dead))
	for _, e := range dead {
		if b.deadEdges[e] {
			continue
		}
		b.deadEdges[e] = true
		deadNow[e] = true
		b.sim.SetLinkUp(e, false)
	}
	rep := &FailoverReport{}
	var remove []ChannelID
	var reqs []core.Req
	for _, hch := range b.ctrl.State().Channels() {
		if slices.ContainsFunc(hch.Route, func(e topo.Edge) bool { return deadNow[e] }) {
			remove = append(remove, hch.ID)
			reqs = append(reqs, core.Req{Spec: hch.Spec, Sinks: hch.Sinks, ID: hch.ID, KeepID: true})
		}
	}
	rep.Affected = len(remove)
	if len(remove) == 0 {
		return rep
	}
	// The release and the re-admission are one pass: the group sees the
	// full residual capacity instead of competing with stale reservations,
	// and a group that fits costs one repartition (internal/admit.AdmitEach).
	chs, errs := b.ctrl.AdmitEach(remove, reqs)
	b.commit(remove, reqs, chs)
	for i, err := range errs {
		if err == nil {
			b.record(rep, chs[i], Rerouted, 0)
			continue
		}
		b.recoverFailed(reqs[i], err, rep)
	}
	return rep
}

// recoverFailed applies the configured policy ladder to one channel the
// recovery pass rejected. Its reservation is gone, its traffic, if
// started, still in the simulation.
func (b *fabricBackend) recoverFailed(req core.Req, admErr error, rep *FailoverReport) {
	switch b.policy {
	case FailDegrade:
		relaxed := req
		relaxed.Spec.D *= 2
		chs, err := b.ctrl.Apply(nil, []core.Req{relaxed})
		if err == nil {
			b.commit(nil, []core.Req{relaxed}, chs)
			b.record(rep, chs[0], Degraded, relaxed.Spec.D)
			return
		}
		admErr = err
	case FailPreempt:
		if b.tryPreempt(req, rep) {
			return
		}
	}
	b.loseChannel(req, admErr, rep)
}

// tryPreempt looks for strictly-lower-priority victims on the saturated
// edge until the request fits, reporting whether it did. An eviction
// commits only together with the admission it makes room for — one
// atomic Apply(victims, request) per candidate set — so a request that
// does not fit even then evicts nobody. Victims are chosen
// deterministically: lowest priority first, ties by lowest ID.
// Non-feasibility failures (no residual route) are not helped by
// eviction and fail immediately.
func (b *fabricBackend) tryPreempt(req core.Req, rep *FailoverReport) bool {
	var victims []*topo.HChannel
	var remove []ChannelID
	for {
		chs, err := b.ctrl.Apply(remove, []core.Req{req})
		if err == nil {
			b.commit(remove, []core.Req{req}, chs)
			for _, v := range victims {
				rep.Outcomes = append(rep.Outcomes, ChannelOutcome{ID: v.ID, Spec: v.Spec, Outcome: Preempted})
				b.tally.Preempted++
			}
			b.record(rep, chs[0], Rerouted, 0)
			return true
		}
		var rej *topo.RejectionError
		if !errors.As(err, &rej) {
			return false
		}
		victim := b.lowestPriorityOn(rej.Edge, req.Spec.Priority, remove)
		if victim == nil {
			return false
		}
		victims = append(victims, victim)
		remove = append(remove, victim.ID)
	}
}

// lowestPriorityOn returns the established channel on the given edge
// with the lowest priority strictly below pri (ties broken by lowest
// ID), skipping the channels already chosen, or nil when no such
// channel exists.
func (b *fabricBackend) lowestPriorityOn(e topo.Edge, pri int32, chosen []ChannelID) *topo.HChannel {
	var victim *topo.HChannel
	for _, hch := range b.ctrl.State().Channels() {
		if hch.Spec.Priority >= pri || !slices.Contains(hch.Route, e) || slices.Contains(chosen, hch.ID) {
			continue
		}
		if victim == nil || hch.Spec.Priority < victim.Spec.Priority ||
			(hch.Spec.Priority == victim.Spec.Priority && hch.ID < victim.ID) {
			victim = hch
		}
	}
	return victim
}

// record tallies a re-admitted channel's outcome; commit has already
// moved its traffic onto the new route, metrics, traffic state and
// release phase carried over.
func (b *fabricBackend) record(rep *FailoverReport, hch *topo.HChannel, outcome FailoverOutcome, newD int64) {
	rep.Outcomes = append(rep.Outcomes, ChannelOutcome{ID: hch.ID, Spec: hch.Spec, Outcome: outcome, NewD: newD})
	switch outcome {
	case Degraded:
		b.tally.Degraded++
	default:
		b.tally.Rerouted++
	}
}

// loseChannel finalizes a channel the ladder could not save: its
// reservation is already gone (the failed re-admission never committed),
// so only its traffic leaves the simulation. Measurements survive.
func (b *fabricBackend) loseChannel(req core.Req, admErr error, rep *FailoverReport) {
	b.simRemove(req.ID)
	rep.Outcomes = append(rep.Outcomes, ChannelOutcome{ID: req.ID, Spec: req.Spec, Outcome: Lost, Err: b.diagnostic([]core.Req{req}, admErr)})
	b.tally.Lost++
}
