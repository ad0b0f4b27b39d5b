package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/edf"
	"repro/internal/fabricsim"
	"repro/internal/frame"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/route"
	"repro/internal/sched"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/rtether"
	"repro/rtether/wire"
)

// The layer ledger: the per-layer figures of a traced run. Every probe
// times calls into one layer's public functions on the workload's own
// inputs — its topology, its standing population, a prefix of its
// operation stream — so a change to that layer moves its own figure
// whether or not the workload's end-to-end numbers can see it.

// ledgerOp is one step of an engine replay: an establish, or a release
// of the channel at a position of the live list.
type ledgerOp struct {
	Release bool
	Pos     int // release: index into the live list (swap-removed)
	Spec    rtether.ChannelSpec
	Sinks   []rtether.NodeID
}

// multicast returns the multicast request of a step that has sinks.
func (o ledgerOp) multicast() rtether.MulticastSpec {
	return rtether.MulticastSpec{Src: o.Spec.Src, Sinks: o.Sinks, C: o.Spec.C, P: o.Spec.P, D: o.Spec.D}
}

// engineInput is one layout's share of a workload for the ledger.
type engineInput struct {
	layout layout
	native bool                  // the workload itself runs on this layout
	start  []rtether.ChannelSpec // admitted as one batch before the stream
	stream []ledgerOp
	pop    []rtether.ChannelSpec // standing population for the simulator probes
	// viaEach replays establishes through Network.EstablishEachMixed, the
	// entry point the daemon uses; otherwise through Network.Establish,
	// which on a star plays the wire handshake in the simulator.
	viaEach bool
}

// ledgerInput is everything the probes take from a workload.
type ledgerInput struct {
	star, fabric engineInput
	// quick shrinks the fixed-size probes (one repetition, short
	// simulations) for the smoke size the tests run.
	quick bool
}

// reps is how often a probe is repeated for its median.
func (in *ledgerInput) reps(n int) int {
	if in.quick {
		return 1
	}
	return n
}

// primary is the layout the wire and rtether probes run on: the star
// when the workload has one of its own, else the fabric.
func (in *ledgerInput) primary() *engineInput {
	if in.star.native {
		return &in.star
	}
	return &in.fabric
}

// ledgerOps bounds the stream prefix the engine replays use, so a traced
// run stays within seconds at fleet scale.
const ledgerOps = 2000

// streamPrefix converts a caller's slot-addressed stream into the
// position-addressed replay form, following the oracle's verdicts, and
// stops after ledgerOps issued operations.
func streamPrefix(c *callerInput) []ledgerOp {
	var out []ledgerOp
	var live []int32
	for i, o := range c.Stream {
		if len(out) >= ledgerOps {
			break
		}
		w := c.Want[i]
		switch o.Kind {
		case opEstablish, opMulticast:
			out = append(out, ledgerOp{Spec: o.Spec, Sinks: o.Sinks})
			if w.Accept {
				live = append(live, o.Slot)
			}
		case opRelease:
			if w.Skip {
				continue
			}
			for p, s := range live {
				if s == o.Slot {
					out = append(out, ledgerOp{Release: true, Pos: p})
					live[p] = live[len(live)-1]
					live = live[:len(live)-1]
					break
				}
			}
		}
	}
	return out
}

// repeatMedian runs a probe reps times and returns the median of its
// per-operation cost, so one preempted repetition does not set the
// figure.
func repeatMedian(reps int, probe func() float64) float64 {
	vs := make([]float64, reps)
	for i := range vs {
		vs[i] = probe()
	}
	return medianFloat(vs)
}

// perOp times n calls of fn and returns nanoseconds and heap
// allocations per call.
func perOp(n int, fn func(i int)) (ns, allocs float64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	d := time.Since(t0)
	runtime.ReadMemStats(&m1)
	return float64(d.Nanoseconds()) / float64(n), float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

// admitter is the slice of a controller the replays drive.
type admitter interface {
	admitAll(specs []rtether.ChannelSpec) ([]core.ChannelID, error)
	establish(o ledgerOp) (core.ChannelID, error)
	release(id core.ChannelID) error
}

type coreAdmitter struct{ c *core.Controller }

func (a coreAdmitter) admitAll(specs []rtether.ChannelSpec) ([]core.ChannelID, error) {
	chs, err := a.c.RequestAll(specs)
	ids := make([]core.ChannelID, len(chs))
	for i, ch := range chs {
		ids[i] = ch.ID
	}
	return ids, err
}

func (a coreAdmitter) establish(o ledgerOp) (core.ChannelID, error) {
	var ch *core.Channel
	var err error
	if len(o.Sinks) > 0 {
		ch, err = a.c.RequestMulticast(o.multicast())
	} else {
		ch, err = a.c.Request(o.Spec)
	}
	if err != nil {
		return 0, err
	}
	return ch.ID, nil
}

func (a coreAdmitter) release(id core.ChannelID) error { return a.c.Release(id) }

// netAdmitter replays through rtether.Network: the figure the
// controller-only replays are subtracted from.
type netAdmitter struct {
	net     *rtether.Network
	viaEach bool
	handles map[core.ChannelID]*rtether.Channel
}

func (a *netAdmitter) admitAll(specs []rtether.ChannelSpec) ([]core.ChannelID, error) {
	chs, err := a.net.EstablishAll(specs)
	ids := make([]core.ChannelID, len(chs))
	for i, ch := range chs {
		ids[i] = ch.ID()
		a.handles[ch.ID()] = ch
	}
	return ids, err
}

func (a *netAdmitter) establish(o ledgerOp) (core.ChannelID, error) {
	var ch *rtether.Channel
	var err error
	switch {
	case a.viaEach:
		chs, errs := a.net.EstablishEachMixed([]rtether.EstablishReq{{Spec: o.Spec, Sinks: o.Sinks}})
		ch, err = chs[0], errs[0]
	case len(o.Sinks) > 0:
		ch, err = a.net.EstablishMulticast(o.multicast())
	default:
		ch, err = a.net.Establish(o.Spec)
	}
	if err != nil {
		return 0, err
	}
	a.handles[ch.ID()] = ch
	return ch.ID(), nil
}

func (a *netAdmitter) release(id core.ChannelID) error {
	ch := a.handles[id]
	delete(a.handles, id)
	return ch.Release()
}

type topoAdmitter struct{ c *topo.Controller }

func (a topoAdmitter) admitAll(specs []rtether.ChannelSpec) ([]core.ChannelID, error) {
	chs, err := a.c.RequestAll(specs)
	ids := make([]core.ChannelID, len(chs))
	for i, ch := range chs {
		ids[i] = ch.ID
	}
	return ids, err
}

func (a topoAdmitter) establish(o ledgerOp) (core.ChannelID, error) {
	var ch *topo.HChannel
	var err error
	if len(o.Sinks) > 0 {
		ch, err = a.c.RequestMulticast(o.multicast())
	} else {
		ch, err = a.c.Request(o.Spec)
	}
	if err != nil {
		return 0, err
	}
	return ch.ID, nil
}

func (a topoAdmitter) release(id core.ChannelID) error { return a.c.Release(id) }

// replayOn admits the start batch and replays the stream on a
// controller, returning mean nanoseconds per establish and per release
// and the operation counts. rec, when set, gets one span per call.
func replayOn(a admitter, in *engineInput, rec *recorder, name string) (estNs, relNs float64, ests, rels int, err error) {
	live, err := a.admitAll(in.start)
	if err != nil {
		return 0, 0, 0, 0, fmt.Errorf("%s: start batch: %w", name, err)
	}
	var estT, relT time.Duration
	for i, o := range in.stream {
		if o.Release {
			id := live[o.Pos]
			live[o.Pos] = live[len(live)-1]
			live = live[:len(live)-1]
			sp := rec.begin(name+".Release", int64(i), -1)
			t0 := time.Now()
			err := a.release(id)
			relT += time.Since(t0)
			rec.end(sp)
			if err != nil {
				return 0, 0, 0, 0, fmt.Errorf("%s: release: %w", name, err)
			}
			rels++
			continue
		}
		sp := rec.begin(name+".Request", int64(i), -1)
		t0 := time.Now()
		id, err := a.establish(o)
		estT += time.Since(t0)
		rec.end(sp)
		ests++
		if err == nil {
			live = append(live, id)
		} else if !errors.Is(err, core.ErrInfeasible) {
			return 0, 0, 0, 0, fmt.Errorf("%s: request %v: %w", name, o.Spec, err)
		}
	}
	if ests > 0 {
		estNs = float64(estT.Nanoseconds()) / float64(ests)
	}
	if rels > 0 {
		relNs = float64(relT.Nanoseconds()) / float64(rels)
	}
	return estNs, relNs, ests, rels, nil
}

// ledger runs every in-process probe and returns the per-layer figures
// they produce. The wire-backed figures (client.*, server.*) are added
// by the caller from a traced wire pass.
func (in *ledgerInput) ledger(rec *recorder) (map[string]float64, error) {
	out := map[string]float64{}

	// core / topo: controller-only replay of the same stream, then the
	// full-state partition function on the final state.
	cc := core.NewController(core.Config{DPS: in.star.layout.coreDPS()})
	cEst, cRel, cEsts, cRels, err := replayOn(coreAdmitter{cc}, &in.star, rec, "core.Controller")
	if err != nil {
		return nil, err
	}
	top := in.fabric.layout.topology()
	tc := topo.NewController(top, topo.Config{DPS: in.fabric.layout.hdps()})
	tEst, tRel, tEsts, tRels, err := replayOn(topoAdmitter{tc}, &in.fabric, rec, "topo.Controller")
	if err != nil {
		return nil, err
	}
	out["core.request_ns"], out["core.release_ns"] = cEst, cRel
	out["topo.request_ns"], out["topo.release_ns"] = tEst, tRel
	if n := cc.State().Len(); n > 0 {
		sp := rec.begin("DPS.Partition", 0, -1)
		t0 := time.Now()
		_ = in.star.layout.coreDPS().Partition(cc.State())
		out["core.partition_ns_per_channel"] = float64(time.Since(t0).Nanoseconds()) / float64(n)
		rec.end(sp)
	}
	if n := tc.State().Len(); n > 0 {
		sp := rec.begin("HDPS.Partition", 0, -1)
		t0 := time.Now()
		_ = in.fabric.layout.hdps().Partition(tc.State())
		out["topo.partition_ns_per_channel"] = float64(time.Since(t0).Nanoseconds()) / float64(n)
		rec.end(sp)
	}

	// rtether: the same stream through rtether.Network on the layouts the
	// workload really runs on; the difference to the controller-only
	// replay is what the Network's lock and backend add.
	var rtEst, rtRel, ctlEst, ctlRel float64
	natives := 0
	for _, e := range []struct {
		in       *engineInput
		est, rel float64
	}{{&in.star, cEst, cRel}, {&in.fabric, tEst, tRel}} {
		if !e.in.native {
			continue
		}
		net := e.in.layout.network()
		est, rel, _, _, err := replayOn(&netAdmitter{net: net, viaEach: e.in.viaEach, handles: map[core.ChannelID]*rtether.Channel{}}, e.in, rec, "rtether.Network")
		_ = net.Close()
		if err != nil {
			return nil, err
		}
		rtEst, rtRel, ctlEst, ctlRel = rtEst+est, rtRel+rel, ctlEst+e.est, ctlRel+e.rel
		natives++
	}
	out["rtether.establish_ns"] = rtEst / float64(natives)
	out["rtether.release_ns"] = rtRel / float64(natives)
	out["rtether.backend_overhead_ns"] = (rtEst + rtRel - ctlEst - ctlRel) / float64(2*natives)

	// admit: exact counter deltas of the native replays.
	var decisions, links, hits, reparts int
	var sweepNs int64
	var replayNs float64
	if in.star.native {
		st := cc.Stats()
		decisions += cEsts + cRels
		links += st.LinksChecked
		hits += cc.SweepSkips()
		reparts += st.Repartitions
		sweepNs += cc.SweepNs()
		replayNs += cEst*float64(cEsts) + cRel*float64(cRels)
	}
	if in.fabric.native {
		decisions += tEsts + tRels
		links += tc.LinksChecked()
		hits += tc.SweepSkips()
		reparts += tc.Repartitions()
		sweepNs += tc.SweepNs()
		replayNs += tEst*float64(tEsts) + tRel*float64(tRels)
	}
	// The start batch is one more decision; it is part of the counters.
	decisions += natives
	out["admit.links_checked_per_decision"] = float64(links) / float64(decisions)
	out["admit.repartitions_per_decision"] = float64(reparts) / float64(decisions)
	if links > 0 {
		out["admit.cache_hit_ratio"] = float64(hits) / float64(links)
	}
	if replayNs > 0 {
		out["admit.sweep_share"] = float64(sweepNs) / replayNs
	}

	// edf: the demand test on every loaded link of the final states.
	var tests, checkpoints, tasks int
	var scratch edf.Scratch
	opts := edf.Options{SkipValidation: true}
	sp := rec.begin("edf.TestScratch", 0, -1)
	t0 := time.Now()
	if in.star.native {
		for _, l := range cc.State().Links() {
			ts := cc.State().TasksOn(l)
			res := edf.TestScratch(ts, opts, &scratch)
			tests, checkpoints, tasks = tests+1, checkpoints+res.Checked, tasks+len(ts)
		}
	}
	if in.fabric.native {
		for _, e := range tc.State().Edges() {
			ts := tc.State().TasksOn(e)
			res := edf.TestScratch(ts, opts, &scratch)
			tests, checkpoints, tasks = tests+1, checkpoints+res.Checked, tasks+len(ts)
		}
	}
	edfT := time.Since(t0)
	rec.end(sp)
	if tests > 0 {
		out["edf.test_ns"] = float64(edfT.Nanoseconds()) / float64(tests)
		out["edf.checkpoints_per_test"] = float64(checkpoints) / float64(tests)
		out["edf.tasks_per_link"] = float64(tasks) / float64(tests)
	}

	// route: the router on the stream's own endpoints.
	in.routeProbe(out, rec, top)

	// rtether batch paths and the simulators on the standing population.
	if err := in.batchProbe(out, rec); err != nil {
		return nil, err
	}
	if err := in.simProbes(out, rec); err != nil {
		return nil, err
	}
	in.microProbes(out)
	return out, nil
}

// routeProbe times Shortest.Route and Shortest.Tree on the fabric
// stream's endpoints (the fabric layout of a star workload is the same
// nodes on one switch).
func (in *ledgerInput) routeProbe(out map[string]float64, rec *recorder, top *topo.Topology) {
	type pair struct {
		src   core.NodeID
		sinks []core.NodeID
	}
	var uni, multi []pair
	for _, o := range in.fabric.stream {
		if o.Release {
			continue
		}
		if len(o.Sinks) > 0 {
			multi = append(multi, pair{o.Spec.Src, o.Sinks})
		} else {
			uni = append(uni, pair{o.Spec.Src, []core.NodeID{o.Spec.Dst}})
		}
	}
	for _, s := range in.fabric.pop {
		uni = append(uni, pair{s.Src, []core.NodeID{s.Dst}})
	}
	if len(multi) == 0 {
		// No multicast in the workload: trees over each unicast source and
		// the next three unicast sinks.
		for i := range uni {
			p := pair{src: uni[i].src}
			seen := map[core.NodeID]bool{}
			for j := 0; len(p.sinks) < 3 && j < len(uni); j++ {
				s := uni[(i+j)%len(uni)].sinks[0]
				if !seen[s] {
					seen[s] = true
					p.sinks = append(p.sinks, s)
				}
			}
			multi = append(multi, p)
		}
	}
	g := top.Graph()
	router := route.Shortest{}
	sp := rec.begin("Router.Route", 0, -1)
	out["route.route_ns"] = repeatMedian(in.reps(5), func() float64 {
		ns, _ := perOp(len(uni), func(i int) { _, _ = router.Route(g, uni[i].src, uni[i].sinks[0]) })
		return ns
	})
	rec.end(sp)
	sp = rec.begin("Router.Tree", 0, -1)
	out["route.tree_ns"] = repeatMedian(in.reps(5), func() float64 {
		ns, _ := perOp(len(multi), func(i int) { _, _, _, _ = router.Tree(g, multi[i].src, multi[i].sinks) })
		return ns
	})
	rec.end(sp)
}

// batchProbe times EstablishAll and EstablishEach of the standing
// population on the primary layout, a fixed link-failure recovery, and
// reads of every handle.
func (in *ledgerInput) batchProbe(out map[string]float64, rec *recorder) error {
	p := in.primary()
	var batchErr error
	sp := rec.begin("Network.EstablishAll", 0, -1)
	out["rtether.batch_ns_per_channel"] = repeatMedian(in.reps(3), func() float64 {
		net := p.layout.network()
		defer net.Close()
		t0 := time.Now()
		if _, err := net.EstablishAll(p.pop); err != nil {
			batchErr = err
		}
		return float64(time.Since(t0).Nanoseconds()) / float64(len(p.pop))
	})
	rec.end(sp)
	if batchErr != nil {
		return fmt.Errorf("ledger: EstablishAll of the standing population: %w", batchErr)
	}
	var handles []*rtether.Channel
	sp = rec.begin("Network.EstablishEach", 0, -1)
	out["rtether.each_ns_per_channel"] = repeatMedian(in.reps(3), func() float64 {
		net := p.layout.network()
		t0 := time.Now()
		chs, _ := net.EstablishEach(p.pop)
		d := time.Since(t0)
		handles = chs
		return float64(d.Nanoseconds()) / float64(len(p.pop))
	})
	rec.end(sp)
	sp = rec.begin("Channel.Spec+Budgets+Metrics", 0, -1)
	out["rtether.read_ns"] = repeatMedian(in.reps(5), func() float64 {
		ns, _ := perOp(len(handles), func(i int) {
			if ch := handles[i]; ch != nil {
				_ = ch.Spec()
				_ = ch.Budgets()
				_ = ch.Metrics()
			}
		})
		return ns / 3
	})
	rec.end(sp)

	// Link-failure recovery on a fixed ring: ledgerFailoverN channels cross
	// the trunk that fails.
	failoverN := ledgerFailoverN
	if in.quick {
		failoverN /= 4
	}
	ring, specs := ringLayout(bulkNodes), ringSpecs(1, failoverN)
	var failErr error
	sp = rec.begin("Network.SetLinkUp", 0, -1)
	out["rtether.failover_ns_per_channel"] = repeatMedian(in.reps(3), func() float64 {
		net := ring.network()
		defer net.Close()
		if _, err := net.EstablishAll(specs); err != nil {
			failErr = err
			return 0
		}
		t0 := time.Now()
		rep, err := net.SetLinkUp(0, 1, false)
		d := time.Since(t0)
		if err != nil || rep.Count(rtether.Rerouted) != len(specs) {
			failErr = fmt.Errorf("recovery report %+v, %v", rep, err)
		}
		return float64(d.Nanoseconds()) / float64(len(specs))
	})
	rec.end(sp)
	if failErr != nil {
		return fmt.Errorf("ledger: failover probe: %w", failErr)
	}
	return nil
}

// ledgerFailoverN sizes the ledger's fixed failover probe.
const ledgerFailoverN = 200

// ledgerSlots is how many virtual slots each simulator probe runs.
const ledgerSlots = 20000

// simHorizon is how many virtual slots a simulator probe runs: at
// least ledgerSlots, and long enough that the population's slowest
// channel delivers frames.
func (in *ledgerInput) simHorizon(pop []rtether.ChannelSpec) int64 {
	h := int64(ledgerSlots)
	if in.quick {
		h /= 4
	}
	for _, s := range pop {
		if need := s.P + 2*s.D; need > h {
			h = need
		}
	}
	return h
}

// simProbes runs the standing populations on the bare simulators and
// on rtether.Network (three fresh builds each, median time), giving
// slots and frames per second for each simulator and the Network's
// overhead over the bare one.
func (in *ledgerInput) simProbes(out map[string]float64, rec *recorder) error {
	var probeErr error
	fail := func(format string, args ...any) float64 {
		if probeErr == nil {
			probeErr = fmt.Errorf(format, args...)
		}
		return 0
	}

	starSlots := in.simHorizon(in.star.pop)
	var starFrames int64
	sp := rec.begin("netsim.Run", 0, -1)
	bareStar := repeatMedian(in.reps(3), func() float64 {
		bare := netsim.New(netsim.Config{DPS: in.star.layout.coreDPS()})
		for _, n := range in.star.layout.nodes() {
			bare.MustAddNode(n)
		}
		ids, err := bare.EstablishChannels(in.star.pop)
		if err != nil {
			return fail("ledger: star population on netsim: %w", err)
		}
		for i, id := range ids {
			if err := bare.Node(in.star.pop[i].Src).StartTraffic(id, int64(i)%in.star.pop[i].P); err != nil {
				return fail("ledger: netsim start: %w", err)
			}
		}
		t0 := time.Now()
		bare.Run(starSlots)
		d := time.Since(t0)
		rep := bare.Report()
		if rep.TotalMisses() != 0 {
			return fail("ledger: netsim probe missed %d deadlines", rep.TotalMisses())
		}
		starFrames = rep.TotalDelivered()
		return d.Seconds()
	})
	rec.end(sp)

	fabricSlots := in.simHorizon(in.fabric.pop)
	var fabricFrames int64
	sp = rec.begin("fabricsim.Run", 0, -1)
	bareFabric := repeatMedian(in.reps(3), func() float64 {
		tc := topo.NewController(in.fabric.layout.topology(), topo.Config{DPS: in.fabric.layout.hdps()})
		if _, err := tc.RequestAll(in.fabric.pop); err != nil {
			return fail("ledger: fabric population: %w", err)
		}
		offsets := map[core.ChannelID]int64{}
		for i, ch := range tc.State().Channels() {
			offsets[ch.ID] = int64(i) % ch.Spec.P
		}
		fs, err := fabricsim.New(tc.State(), offsets, fabricsim.Config{})
		if err != nil {
			return fail("ledger: fabricsim: %w", err)
		}
		t0 := time.Now()
		fs.Run(fabricSlots)
		d := time.Since(t0)
		delivered, misses, _ := fs.Totals()
		if misses != 0 {
			return fail("ledger: fabricsim probe missed %d deadlines", misses)
		}
		fabricFrames = delivered
		return d.Seconds()
	})
	rec.end(sp)

	// The same population behind rtether.Network, on the primary layout.
	p := in.primary()
	slots, base := fabricSlots, bareFabric
	if p == &in.star {
		slots, base = starSlots, bareStar
	}
	sp = rec.begin("Network.RunFor", 0, -1)
	viaNet := repeatMedian(in.reps(3), func() float64 {
		net := p.layout.network()
		defer net.Close()
		chs, err := net.EstablishAll(p.pop)
		if err != nil {
			return fail("ledger: population on rtether.Network: %w", err)
		}
		for i, ch := range chs {
			if err := ch.Start(int64(i) % p.pop[i].P); err != nil {
				return fail("ledger: start: %w", err)
			}
		}
		t0 := time.Now()
		net.RunFor(slots)
		return time.Since(t0).Seconds()
	})
	rec.end(sp)
	if probeErr != nil {
		return probeErr
	}
	out["netsim.slots_per_s"] = float64(starSlots) / bareStar
	out["netsim.frames_per_s"] = float64(starFrames) / bareStar
	out["fabricsim.slots_per_s"] = float64(fabricSlots) / bareFabric
	out["fabricsim.frames_per_s"] = float64(fabricFrames) / bareFabric
	out["rtether.sim_overhead_ratio"] = viaNet / base
	return nil
}

// microProbes are the fixed hot-path probes: the event engine, the EDF
// queue at the population's depth, the RT frame codec, the histogram.
func (in *ledgerInput) microProbes(out map[string]float64) {
	events := 200000
	if in.quick {
		events /= 10
	}
	out["sim.events_per_s"] = repeatMedian(in.reps(5), func() float64 {
		eng := sim.NewEngine()
		noop := func() {}
		t0 := time.Now()
		for i := 0; i < events; i++ {
			eng.At(int64(i%1000), noop)
		}
		eng.RunUntil(1000)
		return float64(events) / time.Since(t0).Seconds()
	})

	depth := 1
	loads := map[core.NodeID]int{}
	for _, s := range in.primary().pop {
		loads[s.Src]++
		if loads[s.Src] > depth {
			depth = loads[s.Src]
		}
	}
	out["sched.edfqueue_ns"] = repeatMedian(in.reps(5), func() float64 {
		var q sched.EDFQueue
		for i := 0; i < depth; i++ {
			q.Push(int64(i*7919%1009), nil)
		}
		ns, _ := perOp(100000, func(i int) {
			q.Push(int64(i*7919%1009), nil)
			q.Pop()
		})
		return ns
	})

	d := frame.Data{SrcMAC: frame.NodeMAC(1), DstMAC: frame.NodeMAC(2), Deadline: 123456, Channel: 42, Payload: make([]byte, 64)}
	raw, _ := frame.EncodeData(d)
	out["frame.encode_ns"] = repeatMedian(in.reps(5), func() float64 {
		ns, _ := perOp(50000, func(int) { _, _ = frame.EncodeData(d) })
		return ns
	})
	out["frame.decode_ns"] = repeatMedian(in.reps(5), func() float64 {
		ns, _ := perOp(50000, func(int) { _, _ = frame.DecodeData(raw) })
		return ns
	})

	h := obs.NewRegistry().Histogram("bench_probe", "ledger probe")
	obsAllocs := 1.0
	out["obs.observe_ns"] = repeatMedian(in.reps(5), func() float64 {
		ns, allocs := perOp(1000000, func(i int) { h.Observe(int64(i)) })
		if allocs < obsAllocs {
			obsAllocs = allocs // the runtime's own rare allocations aside
		}
		return ns
	})
	out["obs.observe_allocs"] = obsAllocs
}

// wireCodec times the binary and JSON codecs on establish requests and
// their replies for the given specs.
func wireCodec(out map[string]float64, ops []ledgerOp) {
	type pairT struct {
		spec  wire.Spec
		reply wire.ChannelReply
	}
	var pairs []pairT
	for _, o := range ops {
		if o.Release || len(o.Sinks) > 0 {
			continue
		}
		pairs = append(pairs, pairT{wire.FromSpec(o.Spec), wire.ChannelReply{ID: uint32(len(pairs) + 1), Budgets: []int64{o.Spec.D / 2, o.Spec.D - o.Spec.D/2}, GuaranteedDelay: o.Spec.D}})
		if len(pairs) == 512 {
			break
		}
	}
	if len(pairs) == 0 {
		return
	}
	n := len(pairs)
	var reqBuf, repBuf []byte
	binReq := make([][]byte, n)
	binRep := make([][]byte, n)
	jsonReq := make([][]byte, n)
	jsonRep := make([][]byte, n)
	var binBytes, jsonBytes int
	for i, p := range pairs {
		binReq[i] = wire.AppendEstablish(nil, uint32(i), p.spec)
		binRep[i] = wire.AppendChannelReply(nil, uint32(i), p.reply)
		jsonReq[i], _ = json.Marshal(wire.EstablishRequest{Spec: p.spec})
		jsonRep[i], _ = json.Marshal(p.reply)
		binBytes += len(binReq[i]) + len(binRep[i])
		jsonBytes += len(jsonReq[i]) + len(jsonRep[i])
	}
	out["wire.bin_bytes_per_op"] = float64(binBytes) / float64(n)
	out["wire.json_bytes_per_op"] = float64(jsonBytes) / float64(n)
	const rounds = 40
	var encAllocs, decAllocs float64
	out["wire.bin_encode_ns"] = repeatMedian(5, func() float64 {
		ns, a := perOp(rounds*n, func(i int) {
			p := pairs[i%n]
			reqBuf = wire.AppendEstablish(reqBuf[:0], uint32(i), p.spec)
			repBuf = wire.AppendChannelReply(repBuf[:0], uint32(i), p.reply)
		})
		encAllocs = a
		return ns
	})
	out["wire.bin_decode_ns"] = repeatMedian(5, func() float64 {
		ns, a := perOp(rounds*n, func(i int) {
			_, _ = wire.DecodeEstablish(binReq[i%n][wire.FrameHeaderLen:])
			_, _ = wire.DecodeChannelReply(binRep[i%n][wire.FrameHeaderLen:])
		})
		decAllocs = a
		return ns
	})
	out["wire.bin_allocs_per_op"] = encAllocs + decAllocs
	out["wire.json_encode_ns"] = repeatMedian(5, func() float64 {
		ns, a := perOp(rounds*n/4, func(i int) {
			p := pairs[i%n]
			_, _ = json.Marshal(wire.EstablishRequest{Spec: p.spec})
			_, _ = json.Marshal(p.reply)
		})
		encAllocs = a
		return ns
	})
	out["wire.json_decode_ns"] = repeatMedian(5, func() float64 {
		ns, a := perOp(rounds*n/4, func(i int) {
			var req wire.EstablishRequest
			var rep wire.ChannelReply
			_ = json.Unmarshal(jsonReq[i%n], &req)
			_ = json.Unmarshal(jsonRep[i%n], &rep)
		})
		decAllocs = a
		return ns
	})
	out["wire.json_allocs_per_op"] = encAllocs + decAllocs
}

// handlerProbe times Server.Handler().ServeHTTP for establish requests
// in-process — no TCP, no client — on the primary layout, replaying the
// stream (releases go through the handler too, untimed).
func (in *ledgerInput) handlerProbe(out map[string]float64, rec *recorder) error {
	p := in.primary()
	net := p.layout.network()
	defer net.Close()
	chs, err := net.EstablishAll(p.start)
	if err != nil {
		return fmt.Errorf("ledger: handler probe start batch: %w", err)
	}
	srv := server.New(server.Config{Network: net})
	defer srv.Close()
	h := srv.Handler()
	live := make([]uint32, len(chs))
	for i, ch := range chs {
		live[i] = uint32(ch.ID())
	}
	post := func(path string, body any) *httptest.ResponseRecorder {
		b, _ := json.Marshal(body)
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(b))
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, req)
		return rr
	}
	var total time.Duration
	n := 0
	for i, o := range p.stream {
		if o.Release {
			id := live[o.Pos]
			live[o.Pos] = live[len(live)-1]
			live = live[:len(live)-1]
			if rr := post("/v1/release", wire.ReleaseRequest{ID: id}); rr.Code != http.StatusOK {
				return fmt.Errorf("ledger: handler probe release: HTTP %d", rr.Code)
			}
			continue
		}
		if len(o.Sinks) > 0 {
			rr := post("/v1/multicast", wire.EstablishMulticastRequest{Spec: wire.FromMulticastSpec(o.multicast())})
			if rr.Code == http.StatusOK {
				var rep wire.ChannelReply
				_ = json.Unmarshal(rr.Body.Bytes(), &rep)
				live = append(live, rep.ID)
			}
			continue
		}
		b, _ := json.Marshal(wire.EstablishRequest{Spec: wire.FromSpec(o.Spec)})
		req := httptest.NewRequest(http.MethodPost, "/v1/establish", bytes.NewReader(b))
		rr := httptest.NewRecorder()
		sp := rec.begin("Server.Handler.ServeHTTP", int64(i), -1)
		t0 := time.Now()
		h.ServeHTTP(rr, req)
		total += time.Since(t0)
		rec.end(sp)
		n++
		if rr.Code == http.StatusOK {
			var rep wire.ChannelReply
			_ = json.Unmarshal(rr.Body.Bytes(), &rep)
			live = append(live, rep.ID)
		}
	}
	if n > 0 {
		out["server.handler_ns.establish"] = float64(total.Nanoseconds()) / float64(n)
	}
	return nil
}
