package rtether

import (
	"fmt"
	"io"

	"repro/internal/admit"
	"repro/internal/core"
	"repro/internal/fabricsim"
	"repro/internal/netsim"
	"repro/internal/stats"
	"repro/internal/topo"
)

// AdmissionStats summarizes admission-control activity: what was
// requested, what was admitted, and why rejections happened. The
// counters are the admission controller's own and mean the same on a
// star and on a fabric: an atomic list counts as len(list) requests and
// at most one rejection, and failure recovery's releases and
// re-admissions count like any others.
type AdmissionStats struct {
	Requests             int // establishment requests seen
	Accepted             int // channels admitted
	RejectedInvalid      int // spec validation failures
	RejectedNoRoute      int // unroutable/unknown-endpoint rejections
	RejectedUtilization  int // first-constraint (U > 1) rejections
	RejectedDemand       int // second-constraint (h(t) > t) rejections
	RejectedInconclusive int // analysis hit configured limits, or no channel ID was free
	Released             int // channels torn down
	LinksChecked         int // cumulative per-link feasibility tests
	// VerifyCacheHits counts the LinksChecked answers given without
	// running the EDF analysis: a link the decision did not move needs no
	// test (LinksChecked includes them, so the skip rate is
	// VerifyCacheHits / LinksChecked).
	VerifyCacheHits int
	// SweepNs is the cumulative wall-clock time (nanoseconds) the kernel
	// spent inside verification sweeps. Unlike the deterministic
	// counters above it is measured, so it varies run to run.
	SweepNs int64
	// Repartitions counts the deadline-repartition passes the admission
	// kernel has run: one per scheme attempted per decision — a whole
	// batch (EstablishAll) counts once, a release or a Reconfigure once,
	// Close once, and a merged EstablishEach group or a failure-recovery
	// pass once when it verifies as a whole. It is the direct measure of
	// how much work request coalescing saves over sequential
	// establishment.
	Repartitions int

	// Survivability counters, advanced by failure recovery
	// (Network.SetLinkUp, Network.SetSwitchUp; multi-switch networks
	// only). Rerouted includes channels that needed preemption to fit.
	Rerouted  int // channels re-admitted under their original contract
	Degraded  int // channels re-admitted with a relaxed deadline (FailDegrade)
	Preempted int // lower-priority victims evicted by FailPreempt
	Lost      int // channels the residual network could not keep

	MeanLinkUtilization float64 // mean utilization over loaded links
	LoadedLinks         int     // links carrying at least one channel
}

// backend is the topology-specific engine behind a Network: the
// cycle-accurate single-switch simulator (internal/netsim, full wire
// protocol) or the routed multi-switch simulator (internal/fabricsim).
type backend interface {
	addNode(id NodeID) error
	// establishWire plays the paper's RequestFrame/ResponseFrame handshake
	// for one channel where the backend models it (the star). Every other
	// change goes through the management plane's one decision: apply
	// releases remove and admits reqs atomically, and applyEach commits the
	// release and gives each request its own verdict. A KeepID request
	// re-admits a channel the same call releases (reconfigure, failure
	// recovery): its traffic, measurements and release phase carry over.
	// Feasibility rejections come back as *AdmissionError.
	establishWire(spec ChannelSpec) (ChannelID, error)
	apply(remove []ChannelID, reqs []core.Req) ([]ChannelID, error)
	applyEach(remove []ChannelID, reqs []core.Req) ([]ChannelID, []error)
	setLinkUp(a, b SwitchID, up bool) (*FailoverReport, error)
	setSwitchUp(s SwitchID, up bool) (*FailoverReport, error)
	setNodeLinkUp(id NodeID, up bool) error
	teardown(id ChannelID) error
	startTraffic(id ChannelID, offset int64) error
	stopTraffic(id ChannelID) error
	sendBestEffort(src, dst NodeID, payload []byte) bool
	schedule(at int64, fn func())
	now() int64
	run(untilSlot int64)
	report() *Report
	budgets(id ChannelID) []int64
	channelIDs() []ChannelID
	metrics(id ChannelID) *ChannelMetrics
	guaranteedDelay(id ChannelID, r core.Req) int64
	linkLoadUp(id NodeID) int
	linkLoadDown(id NodeID) int
	setTracer(t Tracer) bool
	admissionStats() AdmissionStats
	sweepNs() int64
	writeSnapshot(w io.Writer) error
}

// ---------------------------------------------------------------------------
// Star backend: one switch, cycle-accurate, full wire protocol.

type starBackend struct {
	inner *netsim.Network
}

func newStarBackend(cfg netsim.Config, nodes []NodeID) *starBackend {
	be := &starBackend{inner: netsim.New(cfg)}
	for _, id := range nodes {
		be.inner.MustAddNode(id)
	}
	return be
}

func (b *starBackend) addNode(id NodeID) error {
	_, err := b.inner.AddNode(id)
	return err
}

func (b *starBackend) establishWire(spec ChannelSpec) (ChannelID, error) {
	id, err := b.inner.EstablishChannel(spec)
	return id, starDiagnostic([]core.Req{{Spec: spec}}, err)
}

func (b *starBackend) apply(remove []ChannelID, reqs []core.Req) ([]ChannelID, error) {
	ids, err := b.inner.Apply(remove, reqs)
	return ids, starDiagnostic(reqs, err)
}

func (b *starBackend) applyEach(remove []ChannelID, reqs []core.Req) ([]ChannelID, []error) {
	ids, errs := b.inner.ApplyEach(remove, reqs)
	for i, err := range errs {
		errs[i] = starDiagnostic(reqs[i:i+1], err)
	}
	return ids, errs
}

func (b *starBackend) teardown(id ChannelID) error {
	ch := b.inner.Controller().State().Get(id)
	if ch == nil {
		return errUnknownChannel(id)
	}
	return b.inner.Node(ch.Spec.Src).CloseChannel(id)
}

func (b *starBackend) startTraffic(id ChannelID, offset int64) error {
	ch := b.inner.Controller().State().Get(id)
	if ch == nil {
		return errUnknownChannel(id)
	}
	return b.inner.Node(ch.Spec.Src).StartTraffic(id, offset)
}

func (b *starBackend) stopTraffic(id ChannelID) error {
	return b.inner.StopTraffic(id)
}

func (b *starBackend) sendBestEffort(src, dst NodeID, payload []byte) bool {
	node := b.inner.Node(src)
	if node == nil {
		return false
	}
	return node.SendNonRT(dst, payload)
}

func (b *starBackend) schedule(at int64, fn func()) {
	if now := b.inner.Engine().Now(); at < now {
		at = now
	}
	b.inner.Engine().At(at, fn)
}

func (b *starBackend) now() int64          { return b.inner.Engine().Now() }
func (b *starBackend) run(untilSlot int64) { b.inner.Run(untilSlot) }

// report snapshots the simulator's live report: the per-channel metrics
// the simulator keeps accumulating are deep-copied so the caller can
// read the report while the simulation advances on another goroutine.
func (b *starBackend) report() *Report {
	r := b.inner.Report()
	for id, m := range r.Channels {
		r.Channels[id] = cloneMetrics(m)
	}
	return r
}

// cloneMetrics deep-copies one channel's measurements.
func cloneMetrics(m *netsim.ChannelMetrics) *ChannelMetrics {
	if m == nil {
		return nil
	}
	return &ChannelMetrics{Delivered: m.Delivered, Misses: m.Misses, Delays: m.Delays.Clone()}
}

func (b *starBackend) budgets(id ChannelID) []int64 {
	ch := b.inner.Controller().State().Get(id)
	if ch == nil {
		return nil
	}
	return []int64{ch.Part.Up, ch.Part.Down}
}

func (b *starBackend) channelIDs() []ChannelID {
	chs := b.inner.Controller().State().Channels()
	out := make([]ChannelID, len(chs))
	for i, ch := range chs {
		out[i] = ch.ID
	}
	return out
}

func (b *starBackend) metrics(id ChannelID) *ChannelMetrics {
	return cloneMetrics(b.inner.ChannelMetrics(id))
}

func (b *starBackend) guaranteedDelay(_ ChannelID, r core.Req) int64 {
	return r.Spec.D + b.inner.ExtraLatency()
}

func (b *starBackend) linkLoadUp(id NodeID) int {
	return b.inner.Controller().State().LinkLoad(core.Uplink(id))
}

func (b *starBackend) linkLoadDown(id NodeID) int {
	return b.inner.Controller().State().LinkLoad(core.Downlink(id))
}

func (b *starBackend) setTracer(t Tracer) bool {
	b.inner.SetTracer(t)
	return true
}

func (b *starBackend) admissionStats() AdmissionStats {
	state := b.inner.Controller().State()
	return assembleStats(AdmissionStats{}, b.inner.Controller(), state.LoadedLinks(), state.MeanLinkUtilization())
}

// assembleStats fills the admission counters of st from a controller —
// the single owner of Requests, Accepted, the rejection breakdown and
// Released on either backend — and its kernel's sweep accounting.
func assembleStats(st AdmissionStats, c interface {
	Stats() admit.Stats
	SweepSkips() int
	SweepNs() int64
}, loadedLinks int, meanUtilization float64) AdmissionStats {
	cs := c.Stats()
	st.Requests = cs.Requests
	st.Accepted = cs.Accepted
	st.RejectedInvalid = cs.RejectedInvalid
	st.RejectedNoRoute = cs.RejectedNoRoute
	st.RejectedUtilization = cs.RejectedUtilization
	st.RejectedDemand = cs.RejectedDemand
	st.RejectedInconclusive = cs.RejectedInconclusive
	st.Released = cs.Released
	st.LinksChecked = cs.LinksChecked
	st.Repartitions = cs.Repartitions
	st.VerifyCacheHits = c.SweepSkips()
	st.SweepNs = c.SweepNs()
	st.LoadedLinks = loadedLinks
	st.MeanLinkUtilization = meanUtilization
	return st
}

func (b *starBackend) sweepNs() int64 { return b.inner.Controller().SweepNs() }

func (b *starBackend) writeSnapshot(w io.Writer) error {
	return b.inner.Controller().WriteSnapshot(w)
}

// ---------------------------------------------------------------------------
// Fabric backend: routed multi-switch topology, RT traffic simulation.

type fabricBackend struct {
	top  *Topology
	ctrl *topo.Controller
	// sim holds the started channels: installed at the first Start,
	// removed at release. held counts them, to catch a lost one.
	sim  *fabricsim.Sim
	held int
	prop int64

	// policy is the survivability ladder rung applied when a
	// failure-affected channel cannot be re-admitted (WithFailurePolicy).
	policy FailurePolicy
	// deadEdges mirrors the graph's failure state as directed edges, the
	// granularity the simulator drops frames at. Maintained by
	// failAndRecover (failures) and refreshDeadEdges (repairs).
	deadEdges map[topo.Edge]bool

	// tally holds the survivability counters (Rerouted, Degraded,
	// Preempted, Lost); every other AdmissionStats field is read off the
	// controller in admissionStats.
	tally AdmissionStats
}

func newFabricBackend(top *Topology, hdps topo.HDPS, cfg netsim.Config, policy FailurePolicy) *fabricBackend {
	if hdps == nil {
		hdps = topo.HSDPS{}
	}
	return &fabricBackend{
		top: top,
		ctrl: topo.NewController(top.inner, topo.Config{
			DPS:         hdps,
			Feasibility: cfg.Feasibility,
		}),
		sim:       fabricsim.NewSim(fabricsim.Config{DisableShaping: cfg.DisableShaping}),
		prop:      cfg.Propagation,
		policy:    policy,
		deadEdges: make(map[topo.Edge]bool),
	}
}

func (b *fabricBackend) addNode(id NodeID) error {
	return fmt.Errorf("rtether: node %d: attach end-nodes via Topology.Attach before New on a multi-switch network", id)
}

// establishWire on a fabric is apply of one: the multi-switch model has
// no establishment handshake to play out.
func (b *fabricBackend) establishWire(spec ChannelSpec) (ChannelID, error) {
	return core.One(b.apply(nil, []core.Req{{Spec: spec}}))
}

func (b *fabricBackend) apply(remove []ChannelID, reqs []core.Req) ([]ChannelID, error) {
	chs, err := b.ctrl.Apply(remove, reqs)
	if err != nil {
		if len(reqs) > 0 {
			b.sim.TraceAdmission(reqs[0].Spec.Src, 0, false, 0)
		}
		return nil, b.diagnostic(reqs, err)
	}
	return b.commit(remove, reqs, chs), nil
}

func (b *fabricBackend) applyEach(remove []ChannelID, reqs []core.Req) ([]ChannelID, []error) {
	chs, errs := b.ctrl.AdmitEach(remove, reqs)
	for i, err := range errs {
		if err != nil {
			b.sim.TraceAdmission(reqs[i].Spec.Src, 0, false, 0)
			errs[i] = b.diagnostic(reqs[i:i+1], err)
		}
	}
	return b.commit(remove, reqs, chs), errs
}

// commit brings the running simulation in line with one committed
// decision that released remove and admitted chs (parallel to reqs; nil
// entries are rejected requests). A re-admitted channel the simulation
// holds moves to its new route, keeping its measurements and release
// phase; the others wait for their first Start. A released channel
// leaves the simulation unless a request of the decision re-admits it
// under its ID: a refused re-admission is left to the caller (failure
// recovery's policy ladder). Channels the decision repartitioned need
// nothing: the simulation reads their budgets from the admitted channel.
func (b *fabricBackend) commit(remove []ChannelID, reqs []core.Req, chs []*topo.HChannel) []ChannelID {
	var readmitted map[ChannelID]bool
	for _, r := range reqs {
		if r.KeepID {
			if readmitted == nil {
				readmitted = make(map[ChannelID]bool)
			}
			readmitted[r.ID] = true
		}
	}
	for _, id := range remove {
		if !readmitted[id] {
			b.simRemove(id)
		}
	}
	ids := make([]ChannelID, len(chs))
	for i, ch := range chs {
		if ch == nil {
			continue
		}
		switch {
		case b.sim.Holds(ch.ID):
			b.install(ch)
		case !reqs[i].KeepID:
			b.sim.TraceAdmission(ch.Spec.Src, ch.ID, true, ch.Hops[0])
		}
		ids[i] = ch.ID
	}
	return ids
}

// install puts an admitted channel into the simulation under its
// committed route and budgets.
func (b *fabricBackend) install(ch *topo.HChannel) {
	if err := b.sim.Install(ch); err != nil {
		// Admission and the simulator disagree on the channel's identity —
		// a programming error, not a runtime condition.
		panic(fmt.Sprintf("rtether: installing admitted channel: %v", err))
	}
}

// simRemove takes a released channel's traffic out of the simulation.
func (b *fabricBackend) simRemove(id ChannelID) {
	if b.sim.Holds(id) {
		_ = b.sim.Remove(id) // held: it cannot fail
		b.held--
	} else if b.sim.Len() != b.held {
		// The simulation lost a started channel: admission state and the
		// running sim have diverged, which is a programming error, not a
		// runtime condition (same contract as the Install panic).
		panic(fmt.Sprintf("rtether: removing released channel %d: the simulation holds %d channels, not %d", id, b.sim.Len(), b.held))
	}
}

// teardown on a fabric is a release: the multi-switch model carries RT
// traffic only, so there is no wire-level teardown handshake to play out.
func (b *fabricBackend) teardown(id ChannelID) error {
	_, err := b.apply([]ChannelID{id}, nil)
	return err
}

func (b *fabricBackend) startTraffic(id ChannelID, offset int64) error {
	hch := b.ctrl.State().Get(id)
	if hch == nil {
		return errUnknownChannel(id)
	}
	if !b.sim.Holds(id) && offset >= 0 {
		b.install(hch)
		b.held++
	}
	return b.sim.Start(id, offset)
}

func (b *fabricBackend) stopTraffic(id ChannelID) error {
	if b.ctrl.State().Get(id) == nil {
		return errUnknownChannel(id)
	}
	return b.sim.Stop(id)
}

// sendBestEffort is unsupported on fabrics: the multi-switch simulator
// models RT traffic only (the wire-level FCFS coexistence is validated on
// the star network).
func (b *fabricBackend) sendBestEffort(NodeID, NodeID, []byte) bool { return false }

func (b *fabricBackend) schedule(at int64, fn func()) { b.sim.Schedule(at, fn) }

func (b *fabricBackend) now() int64          { return b.sim.Now() }
func (b *fabricBackend) run(untilSlot int64) { b.sim.Run(untilSlot) }

func (b *fabricBackend) report() *Report {
	r := &Report{
		Now:        b.sim.Now(),
		Channels:   make(map[ChannelID]*ChannelMetrics),
		NonRTDelay: stats.NewDelay(0),
		LinkBusy:   make(map[core.Link]float64),
	}
	// Enumerate the simulator's channels, not the admission state's:
	// measurements survive release (the *Channel.Metrics contract), so a
	// channel torn down mid-run must still appear in the final report,
	// exactly as on the star backend.
	for _, id := range b.sim.ChannelIDs() {
		if m := b.metrics(id); m != nil {
			r.Channels[id] = m
		}
	}
	return r
}

func (b *fabricBackend) budgets(id ChannelID) []int64 {
	hch := b.ctrl.State().Get(id)
	if hch == nil {
		return nil
	}
	return append([]int64(nil), hch.Hops...)
}

func (b *fabricBackend) channelIDs() []ChannelID {
	chs := b.ctrl.State().Channels()
	out := make([]ChannelID, len(chs))
	for i, ch := range chs {
		out[i] = ch.ID
	}
	return out
}

func (b *fabricBackend) metrics(id ChannelID) *ChannelMetrics {
	m := b.sim.Channel(id)
	// A channel counts in reports as soon as it has any measurement —
	// gating on Delivered alone would make a channel whose every frame
	// missed its deadline vanish from Report() and undercount
	// TotalMisses().
	if m == nil || m.Delivered+m.Misses == 0 {
		return nil
	}
	return &ChannelMetrics{Delivered: m.Delivered, Misses: m.Misses, HopLate: m.HopLate, Delays: m.Delays.Clone()}
}

// guaranteedDelay pads D with one propagation delay per hop of the
// deepest root→leaf path (Eq. 18.1 holds for the farthest sink): of the
// committed route while channel id is established, otherwise of the
// route r would get now (id 0 names no channel).
func (b *fabricBackend) guaranteedDelay(id ChannelID, r core.Req) int64 {
	if hch := b.ctrl.State().Get(id); hch != nil {
		return hch.Spec.D + int64(topo.Depth(hch.Route, hch.Parents, hch.Leaves))*b.prop
	}
	route, parents, leaves, err := b.top.inner.RouteOf(r)
	if err != nil {
		// No route between the endpoints: there is no delivery guarantee
		// to state. Fabricating a hop count here would hand callers a
		// bound admission control can never back.
		return 0
	}
	return r.Spec.D + int64(topo.Depth(route, parents, leaves))*b.prop
}

func (b *fabricBackend) linkLoadUp(id NodeID) int {
	home, ok := b.top.inner.Home(id)
	if !ok {
		return 0
	}
	return b.ctrl.State().LinkLoad(topo.Edge{From: topo.NodeEnd(id), To: topo.SwitchEnd(home)})
}

func (b *fabricBackend) linkLoadDown(id NodeID) int {
	home, ok := b.top.inner.Home(id)
	if !ok {
		return 0
	}
	return b.ctrl.State().LinkLoad(topo.Edge{From: topo.SwitchEnd(home), To: topo.NodeEnd(id)})
}

// setTracer installs the flight recorder on the fabric simulator: both
// backends stream the same netsim.TraceEvent vocabulary, so one
// consumer (rtether.RingTracer, rtetherd) serves either topology.
func (b *fabricBackend) setTracer(t Tracer) bool {
	b.sim.SetTracer(t)
	return true
}

func (b *fabricBackend) admissionStats() AdmissionStats {
	state := b.ctrl.State()
	return assembleStats(b.tally, b.ctrl, state.LoadedLinks(), state.MeanLinkUtilization())
}

func (b *fabricBackend) sweepNs() int64 { return b.ctrl.SweepNs() }

func (b *fabricBackend) writeSnapshot(w io.Writer) error {
	return fmt.Errorf("rtether: snapshots are not supported on multi-switch networks yet")
}
