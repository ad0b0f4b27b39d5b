// Package rtether is the public API of the switched-Ethernet real-time
// communication library, a reproduction of Hoang & Jonsson, "Real-Time
// Communication for Industrial Embedded Systems Using Switched Ethernet"
// (IPPS 2004).
//
// The library provides RT channels — virtual connections {P, C, d} with a
// guaranteed worst-case delivery delay — over simulated full-duplex
// switched Ethernet. Admission control uses per-link EDF feasibility
// analysis; end-nodes and switches schedule real-time frames
// Earliest-Deadline-First while unmodified best-effort (TCP-like)
// traffic shares the wire through FCFS queues. Deadlines are split
// across the links of a channel's route by a pluggable deadline
// partitioning scheme: symmetric (SDPS) or load-weighted asymmetric
// (ADPS), the paper's contribution.
//
// One Network type covers every topology. The default is the paper's
// single-switch star, simulated cycle-accurately with the full wire
// protocol; passing a multi-switch Topology (the paper's §18.5 future
// work) routes channels across interconnected switches, partitions
// deadlines per hop, and simulates the admitted RT traffic hop by hop.
//
// A minimal session:
//
//	net := rtether.New(rtether.WithADPS())
//	net.MustAddNode(1)
//	net.MustAddNode(2)
//	ch, err := net.Establish(rtether.ChannelSpec{Src: 1, Dst: 2, C: 3, P: 100, D: 40})
//	if err != nil { ... }           // admission said no — see *AdmissionError for why
//	ch.Start(0)                     // C frames every P slots
//	net.RunFor(1000)                // advance virtual time
//	m := ch.Metrics()               // delays, misses
//
// And across a fabric of switches:
//
//	top := rtether.NewTopology()
//	top.AddSwitch(0); top.AddSwitch(1); top.Trunk(0, 1)
//	top.Attach(1, 0); top.Attach(2, 1)
//	net := rtether.New(rtether.WithTopology(top), rtether.WithHDPS(rtether.HADPS()))
//	ch, err := net.Establish(rtether.ChannelSpec{Src: 1, Dst: 2, C: 3, P: 100, D: 42})
//
// All times are integer timeslots (one slot = the transmission time of
// one maximal Ethernet frame; see SlotNanos to convert).
//
// # Concurrency
//
// A Network and the *Channel handles it hands out are safe for use from
// any goroutine. Mutating operations (Establish, EstablishAll,
// EstablishEach, Release, Reconfigure, Teardown, Start, Stop,
// SendBestEffort, Schedule, RunFor, RunUntil, Close) are
// serialized by an internal lock — one management/simulation plane, as on
// a real switch — while read-only queries (Metrics, Spec, Budgets,
// GuaranteedDelay, AdmissionStats, Lookup, Now, Report, link loads) take
// a shared read lock and proceed in parallel. Callbacks registered with
// Schedule run on the goroutine driving the simulation with the lock
// released around them: the run waits at the callback's slot while the
// callback calls freely back into the Network — and other goroutines'
// calls may run meanwhile. Code invoked under the lock (a Tracer) must
// not call back in.
//
// Concurrency does not cost determinism where it matters: the virtual
// clock only advances under the exclusive lock, admission decisions are
// committed one at a time, and replaying the committed operation sequence
// on a fresh Network reproduces identical channels, budgets and
// measurements. See README.md ("Concurrency") for the contract in full.
package rtether

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"

	"repro/internal/core"
	"repro/internal/frame"
	"repro/internal/netsim"
	"repro/internal/sched"
	"repro/internal/stats"
)

// Re-exported core types. External users refer to them through these
// names; the internal packages stay private.
type (
	// NodeID identifies an end-node.
	NodeID = core.NodeID
	// ChannelID is the network-unique RT channel identifier (16 bits in
	// a star's frames, 32 on a fabric).
	ChannelID = core.ChannelID
	// ChannelSpec is a channel request {Src, Dst, P, C, D} in slots.
	ChannelSpec = core.ChannelSpec
	// MulticastSpec is a one-source, N-sink channel request
	// {Src, Sinks, P, C, D} in slots; see Network.EstablishMulticast.
	MulticastSpec = core.MulticastSpec
	// Partition is a two-hop deadline split {Up, Down}.
	Partition = core.Partition
	// DPS is a deadline partitioning scheme for star networks.
	DPS = core.DPS
	// Report is a measurement snapshot; see Network.Report.
	Report = netsim.Report
	// ChannelMetrics holds one channel's delivery measurements.
	ChannelMetrics = netsim.ChannelMetrics
	// DelayStats is a delay distribution summary.
	DelayStats = stats.Delay
)

// ErrInfeasible is the sentinel wrapped by every feasibility-based
// rejection; errors.Is(err, ErrInfeasible) matches regardless of which
// link failed. The concrete error returned by Establish is an
// *AdmissionError carrying the rejecting link and its diagnostics.
var ErrInfeasible = core.ErrInfeasible

// SDPS returns the Symmetric Deadline Partitioning Scheme (d/2 each way).
func SDPS() DPS { return core.SDPS{} }

// ADPS returns the Asymmetric Deadline Partitioning Scheme (link-load
// weighted), the paper's preferred scheme.
func ADPS() DPS { return core.ADPS{} }

// SlotNanos converts one timeslot to nanoseconds for a link of the given
// rate in Mbit/s (e.g. 100 for Fast Ethernet): 1538 wire bytes per
// maximal frame including preamble and inter-frame gap.
func SlotNanos(mbps int64) int64 { return frame.SlotNanos(mbps) }

// config collects everything the options can set. The star fields feed
// the netsim simulator directly; topology and hdps select and tune the
// fabric backend.
type config struct {
	star     netsim.Config
	topology *Topology
	hdps     HDPS
	policy   FailurePolicy
}

// Option configures a Network.
type Option func(*config)

// WithTopology selects the physical layout. A topology with one switch
// (or none) is the degenerate star that New builds by default — its
// attached nodes are pre-added in attachment order. A topology with
// several switches turns the network into a routed fabric: channels
// cross one uplink, zero or more trunks, and one downlink, and their
// deadlines are partitioned per hop by the scheme set with WithHDPS.
func WithTopology(t *Topology) Option {
	return func(c *config) { c.topology = t }
}

// WithDPS selects the deadline partitioning scheme for star networks
// (default SDPS). On a multi-switch topology, SDPS and ADPS map to their
// hop-general forms H-SDPS and H-ADPS; custom DPS implementations do not
// — use WithHDPS for those.
func WithDPS(d DPS) Option {
	return func(c *config) {
		c.star.DPS = d
		switch d.(type) {
		case core.ADPS:
			c.hdps = HADPS()
		case core.SDPS:
			c.hdps = HSDPS()
		}
	}
}

// WithADPS is shorthand for WithDPS(ADPS()).
func WithADPS() Option { return WithDPS(core.ADPS{}) }

// WithHDPS selects the hop-general deadline partitioning scheme used on
// multi-switch topologies (default HSDPS). It has no effect on stars.
func WithHDPS(h HDPS) Option {
	return func(c *config) { c.hdps = h }
}

// WithShaping enables or disables the release-guard regulator at the
// switches (enabled by default). Disabling reproduces the paper's plain
// work-conserving switch.
func WithShaping(enabled bool) Option {
	return func(c *config) { c.star.DisableShaping = !enabled }
}

// WithNonRTQueueCap bounds every best-effort FCFS queue to the given
// number of frames (0 = unbounded, the default). Star networks only —
// the fabric simulator carries RT traffic exclusively.
func WithNonRTQueueCap(frames int) Option {
	return func(c *config) { c.star.NonRTQueueCap = frames }
}

// WithPropagation sets the per-hop propagation delay in whole slots
// (default 0). It contributes to T_latency in the delivery guarantee
// T_max = d + T_latency (Eq. 18.1), scaled by the route's hop count.
// As in the paper, T_latency is an analytic constant padded onto the
// guarantee; the simulators do not delay individual frames by it.
func WithPropagation(slots int64) Option {
	return func(c *config) { c.star.Propagation = slots }
}

// WithFailurePolicy selects what happens to a channel that cannot be
// re-admitted on the residual network after a trunk or switch failure
// (default FailReject; multi-switch networks only — star networks have
// no alternate path to re-route over). See FailurePolicy for the
// ladder: reject, degrade to a relaxed deadline, or preempt
// strictly-lower-priority channels.
func WithFailurePolicy(p FailurePolicy) Option {
	return func(c *config) { c.policy = p }
}

// Discipline selects the real-time queue ordering on every link.
type Discipline = sched.Discipline

// Queue disciplines. Admission control always models EDF; the weaker
// dispatchers exist for comparison experiments (an EDF-admitted set run
// under FIFO misses deadlines — see README.md).
const (
	DisciplineEDF  = sched.DisciplineEDF
	DisciplineFIFO = sched.DisciplineFIFO
	DisciplineDM   = sched.DisciplineDM
)

// WithDiscipline overrides the RT dispatcher (default EDF, the paper's).
// Star networks only.
func WithDiscipline(d Discipline) Option {
	return func(c *config) { c.star.Discipline = d }
}

// Network is one simulated real-time Ethernet network: a single-switch
// star by default, or a routed multi-switch fabric when built with
// WithTopology. Safe for concurrent use; see the package-level
// Concurrency section for the contract.
type Network struct {
	mu      sync.RWMutex
	be      backend
	handles map[ChannelID]*Channel

	// closed flips once in Close, under the write lock. Mutating calls
	// check it and return ErrClosed; read-only queries keep serving the
	// final state (measurements survive teardown by contract).
	closed bool
}

// ErrClosed is returned by every mutating Network method after Close.
// Read-only queries (Report, Metrics, AdmissionStats, ...) keep working
// on the final state.
var ErrClosed = errors.New("rtether: network is closed")

// New creates a network. Without WithTopology (or with a single-switch
// topology) it is the paper's star network, simulated cycle-accurately
// with the full wire protocol; with a multi-switch topology it routes
// channels across the fabric and simulates their RT traffic hop by hop.
func New(opts ...Option) *Network {
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	n := &Network{handles: make(map[ChannelID]*Channel)}
	if cfg.topology == nil || cfg.topology.isStar() {
		var nodes []NodeID
		if cfg.topology != nil {
			nodes = cfg.topology.nodes
		}
		n.be = newStarBackend(cfg.star, nodes)
	} else {
		n.be = newFabricBackend(cfg.topology, cfg.hdps, cfg.star, cfg.policy)
	}
	return n
}

// AddNode attaches an end-node to the switch of a star network. On a
// multi-switch network nodes are attached via Topology.Attach before New
// and AddNode returns an error.
func (n *Network) AddNode(id NodeID) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return ErrClosed
	}
	return n.be.addNode(id)
}

// MustAddNode is AddNode panicking on error, for static topologies.
func (n *Network) MustAddNode(id NodeID) {
	if err := n.AddNode(id); err != nil {
		panic(err)
	}
}

// Establish requests an RT channel and returns its handle. On a star
// network the RequestFrame/ResponseFrame handshake runs over the
// simulated wire and consumes virtual time; on a fabric the channel is
// routed, its deadline partitioned per hop, and every affected link
// re-verified, without consuming time.
//
// A feasibility rejection is returned as an *AdmissionError naming the
// saturated link; errors.Is(err, ErrInfeasible) matches it.
func (n *Network) Establish(spec ChannelSpec) (*Channel, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, ErrClosed
	}
	id, err := n.be.establishWire(spec)
	if err != nil {
		return nil, err
	}
	return n.register(id, core.Req{Spec: spec}), nil
}

// register records the handle of an admitted request; a request that
// re-admits a channel under its ID (Reconfigure) updates that channel's
// handle in place.
func (n *Network) register(id ChannelID, r core.Req) *Channel {
	ch := n.handles[id]
	if ch == nil {
		ch = &Channel{net: n, id: id}
		n.handles[id] = ch
	}
	ch.spec, ch.sinks = r.Spec, slices.Clone(r.Sinks)
	return ch
}

// EstablishMulticast requests a multicast RT channel — one source, N
// sinks, a single {P, C, D} contract — and returns its handle. The
// channel is routed as a shortest-path distribution tree over the
// topology (on a star: the source uplink plus one downlink per sink),
// the end-to-end deadline D is partitioned over the tree so that every
// root→leaf path sums to exactly D while links shared by several
// branches carry a single budget (not one per sink), and every tree
// link is admitted atomically: if any branch fails its per-link EDF
// feasibility test, the whole tree is rolled back and nothing is
// reserved. The rejection is the usual *AdmissionError, additionally
// naming the failing branch and sink (Branch, Sink).
//
// The handle's Spec reports Sinks[0] as Dst; Sinks returns the full
// sink set, and Metrics aggregates delivery measurements over all
// sinks. Like Establish on a fabric, EstablishMulticast runs through
// the management plane on both topologies — no wire handshake, no
// virtual time.
func (n *Network) EstablishMulticast(spec MulticastSpec) (*Channel, error) {
	return core.One(n.apply(nil, []core.Req{spec.Req()}))
}

// EstablishAll requests a whole batch of RT channels as one atomic
// admission decision: the batch is validated, routed (on fabrics),
// partitioned and verified against a single tentative system state — one
// repartition and one verification sweep instead of len(specs) — and
// either every channel is established (handles returned in spec order) or
// none is and the first failure is returned as the usual *AdmissionError.
//
// This is the bulk-provisioning path for scenario loading and offline
// what-if tools: it runs through the management plane directly, so no
// establishment handshake crosses the wire and no virtual time elapses
// even on star networks. It is also the scalable path — admitting N
// channels one Establish at a time repartitions the system N times, while
// EstablishAll does it once (the bench's provision-bulk workload
// measures both).
func (n *Network) EstablishAll(specs []ChannelSpec) ([]*Channel, error) {
	reqs := core.Unicast(specs)
	chs, err := n.apply(nil, reqs)
	return chs, core.BatchError(reqs, err)
}

// apply is the one management-plane decision behind every handle
// operation but the wire paths (Establish on a star, Teardown): it
// releases the channels of remove and admits reqs atomically, then closes
// the handles of the channels released for good, registers the admitted
// ones, and hands a KeepID request — a reconfiguration, which must keep
// its source node and its kind — the handle it re-admits.
func (n *Network) apply(remove []*Channel, reqs []core.Req) ([]*Channel, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, ErrClosed
	}
	ids := make([]ChannelID, len(remove))
	for i, c := range remove {
		if c.closed {
			return nil, ErrChannelClosed
		}
		ids[i] = c.id
	}
	for _, r := range reqs {
		h := n.handles[r.ID]
		switch {
		case !r.KeepID:
		case h.spec.Src != r.Spec.Src:
			return nil, fmt.Errorf("rtether: channel %d cannot move off its source node %d", r.ID, h.spec.Src)
		case (len(h.sinks) > 0) != r.Multicast():
			return nil, fmt.Errorf("rtether: channel %d cannot change between unicast and multicast", r.ID)
		}
	}
	got, err := n.be.apply(ids, reqs)
	if err != nil {
		return nil, err
	}
	for _, id := range ids {
		if !slices.ContainsFunc(reqs, func(r core.Req) bool { return r.KeepID && r.ID == id }) {
			n.closeHandle(id)
		}
	}
	chs := make([]*Channel, len(got))
	for i, id := range got {
		chs[i] = n.register(id, reqs[i])
	}
	return chs, nil
}

// EstablishEach requests a merged batch of RT channels with one verdict
// per spec: unlike EstablishAll's all-or-nothing decision, each spec is
// accepted or rejected on its own — the verdicts sequential Establish
// calls would produce — while the whole group costs close to one
// repartition and one verification sweep when it is feasible together,
// instead of one per spec. Sequential equivalence is exact for schemes
// that partition each channel independently of system state (SDPS,
// H-SDPS, FixedDPS); under the load-adaptive schemes (ADPS, H-ADPS) a
// merged group can occasionally admit a set of channels that some
// sequential order would have partially rejected — the group's joint
// repartition is what made them fit, and the committed state is
// verified feasible either way (the kernel contract in full:
// internal/admit.AdmitEach). This is the primitive behind the
// admission server's request coalescing: many concurrent clients merge
// into one kernel pass (compare AdmissionStats.Repartitions).
//
// The returned slices are parallel to specs: chs[i] is the established
// handle when errs[i] is nil; a rejected spec gets a nil handle and its
// own error (*AdmissionError for feasibility rejections). Like
// EstablishAll, the batch runs through the management plane — no wire
// handshake, no virtual time — on both topologies. On a closed network
// every verdict is ErrClosed.
func (n *Network) EstablishEach(specs []ChannelSpec) ([]*Channel, []error) {
	return n.admitEach(core.Unicast(specs))
}

// admitEach is the per-verdict adapter behind EstablishEach and
// EstablishEachMixed.
func (n *Network) admitEach(reqs []core.Req) ([]*Channel, []error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	chs := make([]*Channel, len(reqs))
	if n.closed {
		errs := make([]error, len(reqs))
		for i := range errs {
			errs[i] = ErrClosed
		}
		return chs, errs
	}
	ids, errs := n.be.applyEach(nil, reqs)
	for i, err := range errs {
		if err == nil {
			chs[i] = n.register(ids[i], reqs[i])
		}
	}
	return chs, errs
}

// EstablishReq is one entry of a mixed establishment batch
// (EstablishEachMixed): a unicast channel request when Sinks is nil, a
// multicast one otherwise — Spec.Dst is then ignored and the committed
// channel reports Sinks[0] as Dst, exactly as EstablishMulticast.
type EstablishReq struct {
	Spec  ChannelSpec
	Sinks []NodeID
}

// req lifts the request into the management plane's vocabulary.
func (r EstablishReq) req() core.Req {
	cr := core.Req{Spec: r.Spec}
	if len(r.Sinks) > 0 {
		cr.Spec.Dst, cr.Sinks = r.Sinks[0], r.Sinks
	}
	return cr
}

// EstablishEachMixed is EstablishEach over a mixed unicast/multicast
// batch: every request — point-to-point channel or distribution tree —
// is accepted or rejected on its own inside one merged kernel pass,
// with the same per-verdict semantics, decision-equivalence contract
// and cost profile as EstablishEach. This is the primitive behind the
// admission server's multicast-aware request coalescing: concurrent
// unicast and multicast clients merge into a single admission decision.
func (n *Network) EstablishEachMixed(reqs []EstablishReq) ([]*Channel, []error) {
	creqs := make([]core.Req, len(reqs))
	for i, r := range reqs {
		creqs[i] = r.req()
	}
	return n.admitEach(creqs)
}

// Close shuts the network down: every established channel's traffic is
// stopped and its reservation released (measurements survive, as they
// do for any released channel), and every subsequent mutating call —
// Establish, EstablishAll, EstablishEach, AddNode, channel lifecycle
// methods — returns ErrClosed (handles also report ErrChannelClosed,
// since Close released them). RunFor, RunUntil and Schedule become
// no-ops, callbacks scheduled before Close no longer run, and
// SendBestEffort reports false. Read-only queries keep
// serving the final state. Close is idempotent and safe to call
// concurrently with any other method; it always returns nil.
func (n *Network) Close() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil
	}
	n.closed = true
	// One decision releases everything: one repartition pass, not one
	// per channel.
	ids := n.be.channelIDs()
	if _, err := n.be.apply(ids, nil); err != nil {
		// channelIDs just listed them and we hold the lock; a failed
		// release means admission state and the backend diverged.
		panic(fmt.Sprintf("rtether: Close: releasing %d channels: %v", len(ids), err))
	}
	for _, id := range ids {
		n.closeHandle(id)
	}
	return nil
}

// ReleaseAll releases the channels of chs in one management-plane
// decision, as Close does: one repartition pass, not one per channel. A
// handle that is not open on this network (released, listed twice, or
// another network's) is skipped.
func (n *Network) ReleaseAll(chs []*Channel) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return ErrClosed
	}
	var ids []ChannelID
	for _, c := range chs {
		if n.handles[c.id] == c {
			ids = append(ids, c.id)
			n.closeHandle(c.id)
		}
	}
	_, err := n.be.apply(ids, nil)
	return err
}

// Lookup returns the handle of an established channel, or nil. Handles
// exist only for channels established through this Network value.
func (n *Network) Lookup(id ChannelID) *Channel {
	n.mu.RLock()
	defer n.mu.RUnlock()
	ch := n.handles[id]
	if ch == nil || ch.closed {
		return nil
	}
	return ch
}

// reconfigureChannel is apply of one release and its replacement under
// the same ID.
func (n *Network) reconfigureChannel(c *Channel, req EstablishReq) error {
	r := req.req()
	r.ID, r.KeepID = c.id, true
	_, err := n.apply([]*Channel{c}, []core.Req{r})
	return err
}

// teardownChannel initiates a wire-level teardown and closes the handle
// (the reservation itself is freed when the Teardown frame reaches the
// switch).
func (n *Network) teardownChannel(c *Channel) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return ErrClosed
	}
	if c.closed {
		return ErrChannelClosed
	}
	if err := n.be.teardown(c.id); err != nil {
		return err
	}
	n.closeHandle(c.id)
	return nil
}

// startChannel attaches a channel's periodic source.
func (n *Network) startChannel(c *Channel, offset int64) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return ErrClosed
	}
	if c.closed {
		return ErrChannelClosed
	}
	return n.be.startTraffic(c.id, offset)
}

// stopChannel detaches a channel's periodic source.
func (n *Network) stopChannel(c *Channel) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return ErrClosed
	}
	if c.closed {
		return ErrChannelClosed
	}
	return n.be.stopTraffic(c.id)
}

// channelBudgets reads a channel's committed per-hop budgets.
func (n *Network) channelBudgets(c *Channel) []int64 {
	n.mu.RLock()
	defer n.mu.RUnlock()
	if c.closed {
		return nil
	}
	return n.be.budgets(c.id)
}

// channelMetrics snapshots a channel's measurements.
func (n *Network) channelMetrics(c *Channel) *ChannelMetrics {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.be.metrics(c.id)
}

func (n *Network) closeHandle(id ChannelID) {
	if ch := n.handles[id]; ch != nil {
		ch.closed = true
		delete(n.handles, id)
	}
}

// SendBestEffort queues one non-real-time frame from src to dst through
// the FCFS path. It reports false if a bounded queue dropped the frame
// or the network does not carry best-effort traffic (fabrics model RT
// traffic only).
func (n *Network) SendBestEffort(src, dst NodeID, payload []byte) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return false
	}
	return n.be.sendBestEffort(src, dst, payload)
}

// Schedule registers fn to run at the absolute slot t (clamped to the
// current time), for custom traffic generators and experiment drivers.
// fn runs on the goroutine driving the simulation, with the network lock
// released around it: the run waits at slot t while fn may call back
// into the Network and its channel handles, and other goroutines' calls
// may run meanwhile. fn does not run if the network is closed by then.
func (n *Network) Schedule(t int64, fn func()) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return
	}
	n.be.schedule(t, func() {
		if n.closed {
			return
		}
		n.mu.Unlock()
		defer n.mu.Lock()
		fn()
	})
}

// Now returns the current virtual time in slots.
func (n *Network) Now() int64 {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.be.now()
}

// RunFor advances the simulation by d slots.
func (n *Network) RunFor(d int64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return
	}
	n.be.run(n.be.now() + d)
}

// RunUntil advances the simulation to the absolute slot t.
func (n *Network) RunUntil(t int64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return
	}
	n.be.run(t)
}

// Report snapshots all measurements: per-channel delays and misses,
// best-effort throughput and drops (star networks). The returned report
// is an independent copy — it does not change as the simulation
// continues.
func (n *Network) Report() *Report {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.be.report()
}

// GuaranteedDelay returns the delivery guarantee T_max = d + T_latency
// for a spec on this network (Eq. 18.1); on fabrics T_latency scales
// with the route's hop count. It returns 0 when the spec's endpoints
// have no route on this network — no guarantee can be stated for a
// channel admission control could never accept.
func (n *Network) GuaranteedDelay(spec ChannelSpec) int64 {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.be.guaranteedDelay(0, core.Req{Spec: spec})
}

// channelGuarantee is GuaranteedDelay for an established channel: the
// bound of its committed route, for a multicast tree that of the
// farthest sink.
func (n *Network) channelGuarantee(c *Channel) int64 {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.be.guaranteedDelay(c.id, core.Req{Spec: c.spec, Sinks: c.sinks})
}

// LinkLoadUp returns the number of channels on a node's uplink — LL in
// the paper's ADPS definition.
func (n *Network) LinkLoadUp(id NodeID) int {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.be.linkLoadUp(id)
}

// LinkLoadDown returns the number of channels on a node's downlink.
func (n *Network) LinkLoadDown(id NodeID) int {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.be.linkLoadDown(id)
}

// AdmissionStats summarizes admission-control activity so far.
func (n *Network) AdmissionStats() AdmissionStats {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.be.admissionStats()
}

// SweepNs is AdmissionStats().SweepNs read in O(1) and without the
// network's lock: the kernel's cumulative verification-sweep time, an
// atomic counter, without the walk over every loaded link that the
// utilization fields cost.
func (n *Network) SweepNs() int64 { return n.be.sweepNs() }

// WriteSnapshot serializes the established channels as indented JSON
// (star networks; see core snapshot format).
func (n *Network) WriteSnapshot(w io.Writer) error {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.be.writeSnapshot(w)
}

// Channels lists established channel IDs in establishment order.
func (n *Network) Channels() []ChannelID {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.be.channelIDs()
}

type errUnknownChannel ChannelID

func (e errUnknownChannel) Error() string {
	return "rtether: unknown channel"
}
