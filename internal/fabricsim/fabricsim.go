// Package fabricsim simulates RT-channel traffic across multi-switch
// fabrics (the topo package's future-work extension), validating that
// the per-hop deadline partitioning produced by H-SDPS/H-ADPS admission
// actually bounds end-to-end delay — the same role netsim plays for the
// single-switch star.
//
// Scope: the fabric simulator carries RT traffic only and takes admitted
// channels (with their routes and hop budgets) directly from the fabric
// admission controller. The wire-protocol machinery — establishment
// handshake, frame codecs, FCFS coexistence — is already validated
// end-to-end on the star network in netsim and is hop-count agnostic, so
// it is not duplicated here; frames travel as structured records.
//
// Scheduling model per directed link: EDF by hop-local absolute deadline
// (release + cumulative hop budgets), one maximal frame per slot,
// store-and-forward, and a release-guard shaper at every intermediate
// hop (a frame becomes eligible for hop i only at its hop i-1 deadline),
// which makes every link's periodic-task feasibility model exact.
package fabricsim

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topo"
)

// rtFrame is one in-flight maximal frame (or, past a multicast branch
// point, one in-flight copy of it).
type rtFrame struct {
	ch      *channelRT
	release int64
	hop     int // index into the route currently being traversed
}

// channelRT is the runtime state of one admitted channel. A unicast
// route is the degenerate tree whose every edge has exactly one child;
// a multicast channel's frames are replicated onto every child edge at
// branch points and measured at every leaf (so Delivered counts
// per-sink deliveries).
type channelRT struct {
	id       core.ChannelID
	spec     core.ChannelSpec
	route    []*link        // the route resolved: route[i] carries edge i
	parents  []int          // tree shape: edge feeding edge i (-1 = root)
	children [][]int        // inverse of parents; empty children = leaf edge
	hch      *topo.HChannel // the admitted channel, its Hops the kernel's
	rev      uint64         // the hch.Rev cum was built from
	cum      []int64        // cumulative deadline at edge i: Hops[i] + cum[parents[i]] (cumAt)
	next     int64          // next release slot
	metrics  *Metrics

	started bool     // a periodic source has been attached
	stopped bool     // traffic stopped (Stop/Remove); in-flight frames drain
	armed   bool     // rel is scheduled
	fired   bool     // a period has released frames: metrics outlive Remove
	gone    bool     // removed or replaced: out of byID, its live entry stale
	rel     *release // the release event, re-armed period after period
}

// release is a channel's periodic release event. One event serves every
// period; Start, Stop, Remove and a re-Install orphan an armed one (its
// channel goes nil, so it fires as a no-op) and the next arm makes a
// fresh one.
type release struct {
	s    *Sim
	ch   *channelRT
	fire func() // run, bound once
}

// Metrics aggregates per-channel results.
type Metrics struct {
	Delivered int64
	Misses    int64
	// HopLate counts frame completions of a hop i after the frame's
	// hop-local deadline, release + the cumulative budgets through hop
	// i. Admission makes every hop feasible, so it stays 0 while the
	// budgets hold; a repartition with frames in flight can break it.
	HopLate int64
	Delays  *stats.Delay
}

// link is one directed edge's transmitter: an EDF queue served one frame
// per slot. Its two events are bound once, and the frame on the wire
// waits in cur: a link sends one frame per slot.
type link struct {
	s     *Sim
	e     topo.Edge
	queue sched.EDF[rtFrame]
	down  bool // the edge is dead: frames on it drop
	busy  bool
	armed bool
	cur   rtFrame

	decideFn, doneFn func() // decide and done, bound once
}

// hold is a frame the release guard keeps back until it becomes
// eligible at its next hop. Fired holds return to the Sim's free list.
type hold struct {
	s    *Sim
	f    rtFrame
	next *hold
	fire func() // run, bound once
}

// Sim is one fabric simulation run.
type Sim struct {
	eng     *sim.Engine
	links   map[topo.Edge]*link
	holds   *hold // free list
	byID    map[core.ChannelID]*channelRT
	live    []*channelRT                // byID in admission order, and gone entries until Run
	done    map[core.ChannelID]*Metrics // removed channels that released traffic
	horizon int64
	shaping bool
	tracer  netsim.Tracer
}

// SetTracer installs a flight-recorder tracer; nil disables tracing
// (the default). The fabric emits the same netsim.TraceEvent vocabulary
// as the star simulator — releases, shaper holds, deliveries, misses,
// admissions — so one consumer serves both topologies; the star≡fabric
// event-kind parity is pinned by rtether's trace tests.
func (s *Sim) SetTracer(t netsim.Tracer) { s.tracer = t }

// emit sends one event to the installed tracer, if any.
func (s *Sim) emit(kind netsim.EventKind, node core.NodeID, ch core.ChannelID, value int64) {
	if s.tracer == nil {
		return
	}
	s.tracer.Trace(netsim.TraceEvent{At: s.eng.Now(), Kind: kind, Node: node, Channel: ch, Value: value})
}

// TraceAdmission reports an establishment verdict to the tracer: the
// star switch emits these from its wire handshake, which the fabric does
// not model, so the fabric backend calls this at the same decision
// points.
func (s *Sim) TraceAdmission(src core.NodeID, ch core.ChannelID, accepted bool, firstHop int64) {
	if accepted {
		s.emit(netsim.EvAdmitted, src, ch, firstHop)
		return
	}
	s.emit(netsim.EvRejected, src, 0, 0)
}

// Config tunes the fabric simulation.
type Config struct {
	// DisableShaping turns off the per-hop release guard (for ablation).
	DisableShaping bool
}

// NewSim returns an empty incremental simulation. Admitted channels are
// installed with Install and generate traffic only after Start — the
// dynamic counterpart of the batch constructor New.
func NewSim(cfg Config) *Sim {
	return &Sim{
		eng:     sim.NewEngine(),
		links:   make(map[topo.Edge]*link),
		byID:    make(map[core.ChannelID]*channelRT),
		done:    make(map[core.ChannelID]*Metrics),
		shaping: !cfg.DisableShaping,
	}
}

// New builds a simulation over the admitted channels of a fabric
// controller state. Offsets gives the release phase per channel (missing
// entries mean 0). Every channel is started immediately.
func New(st *topo.State, offsets map[core.ChannelID]int64, cfg Config) (*Sim, error) {
	s := NewSim(cfg)
	for _, hch := range st.Channels() {
		if err := s.Install(hch); err != nil {
			return nil, err
		}
		if err := s.Start(hch.ID, offsets[hch.ID]); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Install registers an admitted channel with the simulation without
// attaching a traffic source. The route is resolved to its links; the
// hop budgets stay the admission kernel's, read from hch as frames move
// (cumAt), so a later decision that repartitions the channel needs no
// call here. A channel still installed under the same ID
// — re-admitted by a reconfiguration or a failure re-route — is replaced
// and keeps its identity: the old incarnation's source is detached
// (in-flight frames drain, or die on dead edges, under their old route),
// and the new one adopts its Metrics aggregate and periodic release
// schedule, so delivery history and phase both survive. Run arms in
// admission order (hch.Seq), not in install order.
func (s *Sim) Install(hch *topo.HChannel) error {
	if len(hch.Route) == 0 || len(hch.Hops) != len(hch.Route) {
		return fmt.Errorf("fabricsim: channel %v has no installed hop budgets", hch)
	}
	parents := treeParents(hch)
	rt := &channelRT{
		id:       hch.ID,
		spec:     hch.Spec,
		route:    make([]*link, len(hch.Route)),
		parents:  parents,
		children: treeChildren(parents),
		hch:      hch,
		rev:      hch.Rev,
		cum:      cumBudgets(make([]int64, len(hch.Hops)), hch.Hops, parents),
		metrics:  &Metrics{Delays: stats.NewDelay(0)},
	}
	old := s.byID[hch.ID]
	if old != nil {
		rt.metrics, rt.fired = old.metrics, old.fired
		if old.started && !old.stopped {
			rt.started = true
			rt.next = old.next
			if old.armed {
				rt.next -= old.spec.P // re-arm the release that disarm orphans
			}
			rt.next = max(rt.next, s.eng.Now())
		}
		s.retire(old)
	}
	s.byID[hch.ID] = rt
	at := sort.Search(len(s.live), func(i int) bool { return s.live[i].hch.Seq > hch.Seq })
	s.live = slices.Insert(s.live, at, rt)
	for i, e := range hch.Route {
		rt.route[i] = s.link(e)
	}
	s.armRelease(rt)
	return nil
}

// retire stops ch and marks it gone: the next Run drops its live entry.
func (s *Sim) retire(ch *channelRT) {
	ch.stopped, ch.gone = true, true
	ch.disarm()
}

// Holds reports whether a channel is installed.
func (s *Sim) Holds(id core.ChannelID) bool { return s.byID[id] != nil }

// Len returns the number of installed channels.
func (s *Sim) Len() int { return len(s.byID) }

// Start attaches the periodic source of an installed channel: C frames
// every P slots, first release offset slots from now.
func (s *Sim) Start(id core.ChannelID, offset int64) error {
	if offset < 0 {
		return fmt.Errorf("fabricsim: negative release offset %d", offset)
	}
	ch := s.byID[id]
	if ch == nil {
		return fmt.Errorf("fabricsim: unknown channel %d", id)
	}
	if ch.started && !ch.stopped {
		return fmt.Errorf("fabricsim: channel %d already has a source", id)
	}
	ch.started = true
	ch.stopped = false
	ch.disarm() // orphan any release event armed before the restart
	ch.next = s.eng.Now() + offset
	s.armRelease(ch)
	return nil
}

// Stop detaches a channel's traffic source. Frames already released keep
// traversing the fabric and are measured on delivery.
func (s *Sim) Stop(id core.ChannelID) error {
	ch := s.byID[id]
	if ch == nil || !ch.started || ch.stopped {
		return fmt.Errorf("fabricsim: channel %d has no active source", id)
	}
	ch.stopped = true
	ch.disarm()
	return nil
}

// Remove stops a channel and forgets it, so the ID can be reused by a
// later admission. Only the Metrics of a channel that released traffic
// remain (Channel, Totals); frames still in flight drain into them.
func (s *Sim) Remove(id core.ChannelID) error {
	ch := s.byID[id]
	if ch == nil {
		return fmt.Errorf("fabricsim: unknown channel %d", id)
	}
	s.retire(ch)
	delete(s.byID, id)
	if ch.fired {
		s.done[id] = ch.metrics
	}
	return nil
}

// SetLinkUp marks one directed edge up or down. Downing an edge purges
// its queued frames — each counts as a miss for its channel, the
// paper-faithful accounting for data lost to a failure — and every frame
// subsequently injected on, or arriving over, a dead edge is dropped the
// same way. Repair (up=true) only clears the flag; traffic resumes with
// the next release.
func (s *Sim) SetLinkUp(e topo.Edge, up bool) {
	if up {
		if l := s.links[e]; l != nil {
			l.down = false
		}
		return
	}
	l := s.link(e)
	if l.down {
		return
	}
	l.down = true
	for {
		it, ok := l.queue.Pop()
		if !ok {
			break
		}
		s.drop(it.Payload)
	}
}

// link returns the transmitter of a directed edge, made on first use.
func (s *Sim) link(e topo.Edge) *link {
	l := s.links[e]
	if l == nil {
		l = &link{s: s, e: e}
		l.decideFn, l.doneFn = l.decide, l.done
		s.links[e] = l
	}
	return l
}

// drop accounts one frame lost to a dead edge: a miss for its channel.
func (s *Sim) drop(f rtFrame) {
	f.ch.metrics.Misses++
	s.emit(netsim.EvMiss, f.ch.spec.Dst, f.ch.id, -1)
}

// treeParents extracts the parent-index form of a channel's route —
// the explicit tree for multicast, the implicit chain for unicast.
func treeParents(hch *topo.HChannel) []int {
	if hch.Parents != nil {
		return append([]int(nil), hch.Parents...)
	}
	parents := make([]int, len(hch.Route))
	for i := range parents {
		parents[i] = i - 1
	}
	return parents
}

// treeChildren inverts a parent-index vector (parents[i] < i holds by
// construction, so child lists come out in edge order).
func treeChildren(parents []int) [][]int {
	children := make([][]int, len(parents))
	for i, p := range parents {
		if p >= 0 {
			children[p] = append(children[p], i)
		}
	}
	return children
}

// cumBudgets accumulates per-edge deadline budgets down the tree into cum
// (of len(hops)) and returns it: cum[i] = hops[i] + cum[parents[i]] is
// the frame's hop-local absolute deadline offset at edge i. On a chain
// this is the plain prefix sum.
func cumBudgets(cum, hops []int64, parents []int) []int64 {
	for i, h := range hops {
		cum[i] = h
		if p := parents[i]; p >= 0 {
			cum[i] += cum[p]
		}
	}
	return cum
}

// cumAt returns the frame's hop-local deadline offset at edge i, first
// rebuilding the cumulative budgets when the kernel has rewritten the
// channel's hop budgets since the last read (a repartition bumps
// hch.Rev). Frames read it when they are queued at a hop and when they
// complete one, so a repartition reaches the frames already in flight.
func (ch *channelRT) cumAt(i int) int64 {
	if ch.rev != ch.hch.Rev {
		cumBudgets(ch.cum, ch.hch.Hops, ch.parents)
		ch.rev = ch.hch.Rev
	}
	return ch.cum[i]
}

// Run advances the simulation to the absolute slot horizon; callable
// repeatedly with increasing horizons.
func (s *Sim) Run(horizon int64) {
	if horizon > s.horizon {
		s.horizon = horizon
	}
	s.live = slices.DeleteFunc(s.live, func(ch *channelRT) bool { return ch.gone })
	for _, ch := range s.live {
		s.armRelease(ch)
	}
	s.eng.RunUntil(s.horizon)
}

// armRelease schedules the channel's next periodic release if it falls
// within the horizon.
func (s *Sim) armRelease(ch *channelRT) {
	if ch.armed || !ch.started || ch.stopped || ch.next > s.horizon {
		return
	}
	if ch.rel == nil {
		ch.rel = &release{s: s, ch: ch}
		ch.rel.fire = ch.rel.run
	}
	s.eng.AtPrio(ch.next, sim.PrioRelease, ch.rel.fire)
	ch.next += ch.spec.P
	ch.armed = true
}

// disarm orphans the channel's armed release event, if any.
func (ch *channelRT) disarm() {
	if ch.armed {
		ch.rel.ch, ch.rel = nil, nil
	}
	ch.armed = false
}

// run releases one period's C frames and re-arms the event.
func (r *release) run() {
	s, ch := r.s, r.ch
	if ch == nil {
		return // superseded by a Stop/Start cycle; the restart re-armed
	}
	ch.armed, ch.fired = false, true
	now := s.eng.Now()
	for k := int64(0); k < ch.spec.C; k++ {
		s.emit(netsim.EvRelease, ch.spec.Src, ch.id, now+ch.spec.D)
		s.inject(rtFrame{ch: ch, release: now})
	}
	s.armRelease(ch)
}

// inject enqueues a frame at its current hop under the hop-local EDF key.
// Frames bound for a dead edge are dropped as misses.
func (s *Sim) inject(f rtFrame) {
	l := f.ch.route[f.hop]
	if l.down {
		s.drop(f)
		return
	}
	l.queue.Push(f.release+f.ch.cumAt(f.hop), f)
	l.kick()
}

// hold schedules f's injection at its current hop for slot at.
func (s *Sim) hold(f rtFrame, at int64) {
	h := s.holds
	if h == nil {
		h = &hold{s: s}
		h.fire = h.run
	} else {
		s.holds = h.next
	}
	h.f = f
	s.eng.At(at, h.fire)
}

// run injects the held frame and returns the hold to the free list.
func (h *hold) run() {
	s, f := h.s, h.f
	h.f, h.next, s.holds = rtFrame{}, s.holds, h
	s.inject(f)
}

func (l *link) kick() {
	if l.busy || l.armed || l.queue.Len() == 0 {
		return
	}
	l.armed = true
	l.s.eng.AtPrio(l.s.eng.Now(), sim.PrioDecide, l.decideFn)
}

func (l *link) decide() {
	l.armed = false
	if l.busy {
		return
	}
	it, ok := l.queue.Pop()
	if !ok {
		return
	}
	l.cur = it.Payload
	l.busy = true
	l.s.eng.AtPrio(l.s.eng.Now()+1, sim.PrioDeliver, l.doneFn)
}

// done ends the slot: the link is free and its frame has completed the
// hop.
func (l *link) done() {
	f := l.cur
	l.cur = rtFrame{}
	l.busy = false
	l.kick()
	l.s.arrive(f)
}

// arrive handles a frame completing one hop: final delivery measurement
// at a leaf edge, or hand-off (optionally shaped) to every child edge —
// at a multicast branch point the frame is replicated, one copy per
// subtree, each measured independently at its own leaf.
func (s *Sim) arrive(f rtFrame) {
	if f.ch.route[f.hop].down {
		// The edge died while the frame was in transit on it.
		s.drop(f)
		return
	}
	now := s.eng.Now()
	prevDeadline := f.release + f.ch.cumAt(f.hop)
	if now > prevDeadline {
		f.ch.metrics.HopLate++
	}
	kids := f.ch.children[f.hop]
	if len(kids) == 0 {
		delay := now - f.release
		f.ch.metrics.Delivered++
		f.ch.metrics.Delays.Observe(delay)
		sink := f.ch.spec.Dst
		if leaf := f.ch.route[f.hop].e.To; !leaf.Switch {
			sink = core.NodeID(leaf.ID) // multicast: attribute to the actual sink
		}
		s.emit(netsim.EvDeliver, sink, f.ch.id, delay)
		if delay > f.ch.spec.D {
			f.ch.metrics.Misses++
			s.emit(netsim.EvMiss, sink, f.ch.id, delay)
		}
		return
	}
	for _, next := range kids {
		nf := f
		nf.hop = next
		if s.shaping && prevDeadline > now {
			s.emit(netsim.EvShaperHold, f.ch.spec.Dst, f.ch.id, prevDeadline)
			s.hold(nf, prevDeadline)
			continue
		}
		s.inject(nf)
	}
}

// Channel returns the metrics of an installed channel, or of a removed
// one that released traffic, or nil. An installed channel wins over a
// removed one under the same ID.
func (s *Sim) Channel(id core.ChannelID) *Metrics {
	if ch := s.byID[id]; ch != nil {
		return ch.metrics
	}
	return s.done[id]
}

// ChannelIDs returns the IDs Channel answers for, ascending: the
// installed channels and the removed ones that released traffic.
func (s *Sim) ChannelIDs() []core.ChannelID {
	ids := make([]core.ChannelID, 0, len(s.byID)+len(s.done))
	for id := range s.byID {
		ids = append(ids, id)
	}
	for id := range s.done {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// Totals sums delivered frames, misses and the worst observed delay.
func (s *Sim) Totals() (delivered, misses, worst int64) {
	for _, id := range s.ChannelIDs() {
		m := s.Channel(id)
		delivered += m.Delivered
		misses += m.Misses
		worst = max(worst, m.Delays.Max())
	}
	return delivered, misses, worst
}

// Now returns the simulation clock.
func (s *Sim) Now() int64 { return s.eng.Now() }

// Schedule registers fn at the absolute slot t (clamped to the current
// clock), for custom generators and experiment drivers.
func (s *Sim) Schedule(t int64, fn func()) {
	if now := s.eng.Now(); t < now {
		t = now
	}
	s.eng.At(t, fn)
}
