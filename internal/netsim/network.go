package netsim

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/edf"
	"repro/internal/sched"
	"repro/internal/sim"
)

// Config tunes the simulated network.
type Config struct {
	// DPS is the deadline partitioning scheme used by the switch's
	// admission control; nil means SDPS.
	DPS core.DPS
	// DisableShaping turns off the switch's release-guard regulator, which
	// holds a frame back from the downlink queue until
	// absDeadline - d_id. Shaping (the default) makes the downlink's
	// periodic-task assumption hold exactly; disabling it reproduces the
	// paper's naive work-conserving behaviour for the ablation experiment.
	DisableShaping bool
	// NonRTQueueCap bounds every FCFS queue (frames); 0 = unbounded.
	NonRTQueueCap int
	// Discipline selects the RT queue ordering on every link: EDF (the
	// paper's scheduler, the default), FIFO or DM. Admission control is
	// EDF-based regardless — mismatched combinations exist to demonstrate
	// (experiment E11) that the analysis is only valid for the dispatcher
	// it models.
	Discipline sched.Discipline
	// Propagation is the constant per-hop propagation delay in whole
	// slots (one half of T_latency; a channel crosses two hops).
	Propagation int64
	// FaultInjector, when non-nil, intercepts every frame at delivery:
	// it may corrupt the bytes (return a modified slice) or drop the
	// frame entirely (return nil). Used by failure-injection tests to
	// verify the RT layer degrades gracefully — corrupt frames are
	// counted and discarded by the codecs' checksum/length validation,
	// never crash the stack.
	FaultInjector func(slot int64, b []byte) []byte
	// Feasibility passes through to the admission controller.
	Feasibility edf.Options
}

// ErrUnknownNode is the sentinel wrapped by every establishment failure
// caused by an endpoint that is not an attached end-node — the star
// network's "no route" condition. errors.Is(err, ErrUnknownNode)
// matches regardless of which endpoint was unknown.
var ErrUnknownNode = errors.New("netsim: unknown end-node")

// Network is one star network: a switch plus end-nodes, sharing a
// deterministic event engine. Network itself is not safe for concurrent
// use — every method must run under external serialization. The public
// rtether.Network provides exactly that (one lock around the whole
// management/simulation plane), which is what makes the top-level API
// safe for concurrent use while this simulator stays single-threaded and
// deterministic.
type Network struct {
	cfg  Config
	eng  *sim.Engine
	ctrl *core.Controller
	sw   *Switch

	nodes   map[core.NodeID]*Node
	nodeIDs []core.NodeID // insertion order for deterministic reports

	// linkDown marks node↔switch links whose cable is "unplugged": frames
	// crossing a dead link in either direction are dropped, with RT data
	// counted as misses at the receivers that lose them.
	linkDown    map[core.NodeID]bool
	rtLinkDrops int64

	tracer  Tracer
	horizon int64

	// lastReject holds the admission controller's diagnostic for the most
	// recent rejected establishment. The wire ResponseFrame only carries an
	// accept bit (Fig. 18.4), so EstablishChannel — which serializes
	// handshakes by stepping the simulation to completion — recovers the
	// switch-side reason from here.
	lastReject error
}

// New constructs an empty network.
func New(cfg Config) *Network {
	n := &Network{
		cfg:      cfg,
		eng:      sim.NewEngine(),
		nodes:    make(map[core.NodeID]*Node),
		linkDown: make(map[core.NodeID]bool),
	}
	n.ctrl = core.NewController(core.Config{
		DPS:         cfg.DPS,
		Feasibility: cfg.Feasibility,
		Latency:     2 * cfg.Propagation,
	})
	n.sw = newSwitch(n)
	return n
}

// Engine exposes the event engine (for custom generators and tests).
func (n *Network) Engine() *sim.Engine { return n.eng }

// Controller exposes the switch's admission controller.
func (n *Network) Controller() *core.Controller { return n.ctrl }

// Switch exposes the switch model.
func (n *Network) Switch() *Switch { return n.sw }

// ExtraLatency returns T_latency: the constant propagation/access delay a
// frame accumulates end to end beyond its deadline budget (Eq. 18.1).
func (n *Network) ExtraLatency() int64 { return 2 * n.cfg.Propagation }

// AddNode creates an end-node with the given ID and plugs it into the
// switch. Adding a duplicate ID returns an error.
func (n *Network) AddNode(id core.NodeID) (*Node, error) {
	if _, dup := n.nodes[id]; dup {
		return nil, fmt.Errorf("netsim: node %d already exists", id)
	}
	node := newNode(n, id)
	n.nodes[id] = node
	n.nodeIDs = append(n.nodeIDs, id)
	n.sw.attachNode(node)
	return node, nil
}

// MustAddNode is AddNode for static topologies built in examples/tests.
func (n *Network) MustAddNode(id core.NodeID) *Node {
	node, err := n.AddNode(id)
	if err != nil {
		panic(err)
	}
	return node
}

// Node returns the end-node with the given ID, or nil.
func (n *Network) Node(id core.NodeID) *Node { return n.nodes[id] }

// Nodes returns all node IDs in creation order.
func (n *Network) Nodes() []core.NodeID {
	return append([]core.NodeID(nil), n.nodeIDs...)
}

// Run advances the simulation to the given absolute slot. Periodic
// sources emit traffic up to that horizon. Run may be called repeatedly
// with increasing horizons.
func (n *Network) Run(untilSlot int64) {
	if untilSlot > n.horizon {
		n.horizon = untilSlot
	}
	for _, id := range n.nodeIDs {
		n.nodes[id].armSources()
	}
	n.eng.RunUntil(n.horizon)
}

// EstablishChannel performs the full request/response handshake of
// §18.2.2 over the simulated wire and blocks (by stepping the simulation)
// until the source node receives the ResponseFrame. It returns the
// network-unique channel ID on acceptance.
//
// The handshake consumes simulated time (control frames queue behind
// other traffic), so establishment is itself part of the experiment.
func (n *Network) EstablishChannel(spec core.ChannelSpec) (core.ChannelID, error) {
	if err := n.checkEndpoints(core.Req{Spec: spec}); err != nil {
		n.ctrl.RejectNoRoute(1)
		return 0, err
	}
	src := n.nodes[spec.Src]
	type outcome struct {
		id  core.ChannelID
		err error
	}
	var result *outcome
	n.lastReject = nil
	src.requestChannel(spec, func(id core.ChannelID, err error) {
		result = &outcome{id: id, err: err}
	})
	// Step the simulation until the response lands. The handshake crosses
	// four link traversals plus queueing; cap generously to detect wedges.
	deadline := n.eng.Now() + 1<<20
	for result == nil {
		if !n.eng.Step() || n.eng.Now() > deadline {
			return 0, fmt.Errorf("netsim: channel establishment did not complete (engine stalled at %d)", n.eng.Now())
		}
	}
	if result.err != nil {
		// A bare wire-level rejection with a recorded switch-side reason:
		// surface the diagnostic (it unwraps to ErrInfeasible when it is a
		// feasibility failure). Handshakes are serialized, so the recorded
		// reason belongs to this request.
		if errors.Is(result.err, core.ErrInfeasible) && n.lastReject != nil {
			return 0, n.lastReject
		}
		return 0, result.err
	}
	return result.id, nil
}

// EstablishAll admits a list of requests — unicast channels and
// multicast trees alike — through the management plane as one atomic
// admission decision (core.Controller.Admit): the list is validated,
// partitioned and verified against a single tentative state, and any
// rejection rolls all of it back. No wire handshake runs and no virtual
// time elapses — this is the bulk-provisioning path (scenario loading,
// offline what-if tools), not a model of the paper's per-channel
// establishment protocol. Either every channel is committed and
// registered with the switch dataplane (a multicast one fanned out to
// every sink), or none is.
func (n *Network) EstablishAll(reqs []core.Req) ([]core.ChannelID, error) {
	for i, r := range reqs {
		if err := n.checkEndpoints(r); err != nil {
			n.ctrl.RejectNoRoute(len(reqs))
			return nil, &core.ReqError{Index: i, Err: err}
		}
	}
	chs, err := n.ctrl.Admit(reqs)
	if err != nil {
		return nil, err
	}
	ids := make([]core.ChannelID, len(chs))
	for i, ch := range chs {
		n.sw.dataplane[ch.ID] = fanout(ch)
		ids[i] = ch.ID
	}
	return ids, nil
}

// EstablishChannels is EstablishAll of unicast specs, with a failing
// spec named in the error ("batch spec i (…)").
func (n *Network) EstablishChannels(specs []core.ChannelSpec) ([]core.ChannelID, error) {
	reqs := core.Unicast(specs)
	ids, err := n.EstablishAll(reqs)
	return ids, core.BatchError(reqs, err)
}

// checkEndpoints verifies that the source and the destination — every
// sink of a multicast request — are attached nodes.
func (n *Network) checkEndpoints(r core.Req) error {
	if n.nodes[r.Spec.Src] == nil {
		return fmt.Errorf("%w: source node %d", ErrUnknownNode, r.Spec.Src)
	}
	if !r.Multicast() && n.nodes[r.Spec.Dst] == nil {
		return fmt.Errorf("%w: destination node %d", ErrUnknownNode, r.Spec.Dst)
	}
	for _, s := range r.Sinks {
		if n.nodes[s] == nil {
			return fmt.Errorf("%w: sink node %d", ErrUnknownNode, s)
		}
	}
	return nil
}

// EstablishEach admits a merged list through the management plane with
// one verdict per request (core.Controller.AdmitEach): unlike
// EstablishAll, a rejected request does not fail the others — each
// accepted channel is committed and registered with the switch
// dataplane, each rejected one carries its own error. The returned
// slices are parallel to reqs (ids[i] is valid iff errs[i] is nil).
// Like the all-or-nothing path, no wire handshake runs and no virtual
// time elapses.
func (n *Network) EstablishEach(reqs []core.Req) ([]core.ChannelID, []error) {
	ids := make([]core.ChannelID, len(reqs))
	errs := make([]error, len(reqs))
	valid := make([]int, 0, len(reqs))
	routable := make([]core.Req, 0, len(reqs))
	for i, r := range reqs {
		if errs[i] = n.checkEndpoints(r); errs[i] != nil {
			n.ctrl.RejectNoRoute(1)
			continue
		}
		valid = append(valid, i)
		routable = append(routable, r)
	}
	chs, cerrs := n.ctrl.AdmitEach(routable)
	for vi, i := range valid {
		if errs[i] = cerrs[vi]; errs[i] == nil {
			n.sw.dataplane[chs[vi].ID] = fanout(chs[vi])
			ids[i] = chs[vi].ID
		}
	}
	return ids, errs
}

// SetLinkUp marks the full-duplex link between a node and the switch as
// up or down. While down, frames crossing the link in either direction —
// including frames already queued on a transmitter — are dropped; RT
// data losses are counted as misses on the receiving side's channel
// metrics (the star analogue of a fabric trunk failure). Reservations
// are untouched: a star has no alternate path, so re-routing is the
// fabric's job and the star's failure story is honest loss accounting.
func (n *Network) SetLinkUp(id core.NodeID, up bool) error {
	if n.nodes[id] == nil {
		return fmt.Errorf("%w: node %d", ErrUnknownNode, id)
	}
	if up {
		delete(n.linkDown, id)
	} else {
		n.linkDown[id] = true
	}
	return nil
}

// LinkUp reports whether a node's link to the switch is up. Unknown
// nodes report false.
func (n *Network) LinkUp(id core.NodeID) bool {
	return n.nodes[id] != nil && !n.linkDown[id]
}

// RTLinkDrops returns the cumulative count of RT data frames dropped on
// dead links (each was also counted as a miss at its receiver).
func (n *Network) RTLinkDrops() int64 { return n.rtLinkDrops }

// StopTraffic detaches the periodic source of a channel without releasing
// the reservation (the inverse of Node.StartTraffic).
func (n *Network) StopTraffic(id core.ChannelID) error {
	ch := n.ctrl.State().Get(id)
	if ch == nil {
		return fmt.Errorf("netsim: unknown channel %d", id)
	}
	node := n.nodes[ch.Spec.Src]
	if node == nil || node.sources[id] == nil {
		return fmt.Errorf("netsim: channel %d has no active source", id)
	}
	node.stopSource(id)
	return nil
}

// ChannelMetrics returns the receiver-side measurements of one channel,
// or nil when it has not delivered any traffic yet. With a single
// receiver (unicast) the returned struct is live — it keeps
// accumulating as the simulation advances. A multicast channel's
// metrics aggregate every sink's deliveries (counters summed, delay
// distributions merged) into a fresh snapshot.
func (n *Network) ChannelMetrics(id core.ChannelID) *ChannelMetrics {
	var found []*ChannelMetrics
	for _, nid := range n.nodeIDs {
		if m := n.nodes[nid].rxChannels[id]; m != nil {
			found = append(found, m)
		}
	}
	switch len(found) {
	case 0:
		return nil
	case 1:
		return found[0]
	}
	agg := newChannelMetrics()
	for _, m := range found {
		agg.Delivered += m.Delivered
		agg.Misses += m.Misses
		agg.Delays.Merge(m.Delays)
	}
	return agg
}

// ForceChannel installs a channel in both the admission state and the
// switch dataplane without any feasibility test or handshake. Experiments
// use it to simulate deliberately over-admitted systems; see
// core.Controller.ForceAdd.
func (n *Network) ForceChannel(spec core.ChannelSpec, part core.Partition) (core.ChannelID, error) {
	if n.nodes[spec.Src] == nil || n.nodes[spec.Dst] == nil {
		return 0, fmt.Errorf("netsim: unknown endpoint in %v", spec)
	}
	ch, err := n.ctrl.ForceAdd(spec, part)
	if err != nil {
		return 0, err
	}
	n.sw.dataplane[ch.ID] = fanout(ch)
	return ch.ID, nil
}

// ReleaseChannel tears down an established channel and stops its traffic
// source if one is attached.
func (n *Network) ReleaseChannel(id core.ChannelID) error {
	ch := n.ctrl.State().Get(id)
	if ch == nil {
		return fmt.Errorf("netsim: unknown channel %d", id)
	}
	if node := n.nodes[ch.Spec.Src]; node != nil {
		node.stopSource(id)
	}
	n.sw.forget(id)
	return n.ctrl.Release(id)
}
