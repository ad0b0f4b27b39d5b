package main

import (
	"fmt"
	"math/rand"
	"os"
	"time"

	"repro/internal/traffic"
	"repro/rtether"
)

// simSizes fixes the run lengths of dataplane-sim.
type simSizes struct {
	blockSlots   int64 // virtual slots per timed RunFor block
	starBlocks   int
	fabricBlocks int
	setupReps    int
}

// Data-plane load constants.
const (
	bgFlows       = 20   // best-effort background flows on the star
	bgRate        = 0.05 // frames per slot per flow
	readsPerBlock = 10   // Channel.Metrics reads timed as one read sample
	readBlocks    = 4    // read samples after every simulated block
	reconfigs     = 10   // channels torn down and re-established after every star block
	paperRequests = 200  // Fig. 18.5: requests offered to the 10-master, 50-slave star
)

// simWorkload is dataplane-sim: admitted channels carrying traffic on
// both simulators, checked against the paper's promise.
type simWorkload struct {
	sizes simSizes

	// (a) The Fig. 18.5 star: every request of the paper's master-slave
	// pattern is offered under ADPS; the admitted ones are started.
	Star     layout
	Requests []rtether.ChannelSpec
	Offsets  []int64 // start phase per request
	BG       [][2]rtether.NodeID
	BGSeed   int64
	Reconfig []int // per block: which admitted channel is torn down and re-established
	Reads    []int // per read: which channel's metrics are read

	// (b) The fabric-churn standing population on the 4-switch line.
	Fabric        layout
	FabricSpecs   [][]rtether.ChannelSpec // one batch per direction
	FabricOffsets []int64
}

// genSim generates dataplane-sim's inputs.
func genSim(seed int64, sz simSizes) *simWorkload {
	w := &simWorkload{sizes: sz, BGSeed: seed*1021 + 1}
	var nodes []uint16
	for _, n := range traffic.PaperLayout.Nodes() {
		nodes = append(nodes, uint16(n))
	}
	w.Star = starLayout("fig18.5-star", "adps", nodes)
	w.Requests = traffic.PaperLayout.Requests(paperRequests, traffic.PaperSpec)
	rng := rand.New(rand.NewSource(seed * 1021))
	for range w.Requests {
		w.Offsets = append(w.Offsets, rng.Int63n(traffic.PaperSpec.P))
	}
	for len(w.BG) < bgFlows {
		m := traffic.PaperLayout.Master(rng.Intn(traffic.PaperLayout.Masters))
		s := traffic.PaperLayout.Slave(rng.Intn(traffic.PaperLayout.Slaves))
		if len(w.BG)%2 == 0 {
			w.BG = append(w.BG, [2]rtether.NodeID{m, s})
		} else {
			w.BG = append(w.BG, [2]rtether.NodeID{s, m})
		}
	}
	for i := 0; i < sz.starBlocks*reconfigs; i++ {
		w.Reconfig = append(w.Reconfig, rng.Intn(1<<30))
	}
	for i := 0; i < (sz.starBlocks+sz.fabricBlocks)*readBlocks*readsPerBlock; i++ {
		w.Reads = append(w.Reads, rng.Intn(1<<30))
	}
	w.Fabric = fabricChurnLayout()
	for _, c := range genFabricChurn(seed, 0) {
		w.FabricSpecs = append(w.FabricSpecs, c.Preload)
		for range c.Preload {
			w.FabricOffsets = append(w.FabricOffsets, rng.Int63n(400))
		}
	}
	return w
}

// liveChannel is one started channel with what the checks need.
type liveChannel struct {
	ch      *rtether.Channel
	spec    rtether.ChannelSpec
	started int64 // virtual slot of the first release
}

// simState is one built data plane.
type simState struct {
	net  *rtether.Network
	live []liveChannel
	all  []liveChannel // every channel ever started, torn down ones included
}

// setUpStar builds the Fig. 18.5 star, offers every request and starts
// the admitted channels.
func (w *simWorkload) setUpStar(m *measured) (*simState, error) {
	st := &simState{net: w.Star.network()}
	chs, errs := st.net.EstablishEach(w.Requests)
	for i, ch := range chs {
		if errs[i] != nil {
			continue
		}
		if err := ch.Start(w.Offsets[i]); err != nil {
			return nil, fmt.Errorf("dataplane-sim: starting %v: %w", w.Requests[i], err)
		}
		st.live = append(st.live, liveChannel{ch: ch, spec: w.Requests[i], started: w.Offsets[i]})
	}
	if len(st.live) == 0 {
		return nil, fmt.Errorf("dataplane-sim: no Fig. 18.5 request admitted")
	}
	st.all = append(st.all, st.live...)
	if m != nil {
		m.counts["star_admitted"] = int64(len(st.live))
	}
	return st, nil
}

// setUpFabric provisions the fabric-churn standing population and starts
// every channel.
func (w *simWorkload) setUpFabric(m *measured) (*simState, error) {
	st := &simState{net: w.Fabric.network()}
	i := 0
	for _, batch := range w.FabricSpecs {
		chs, err := st.net.EstablishAll(batch)
		if err != nil {
			return nil, fmt.Errorf("dataplane-sim: fabric preload: %w", err)
		}
		for k, ch := range chs {
			if err := ch.Start(w.FabricOffsets[i]); err != nil {
				return nil, fmt.Errorf("dataplane-sim: starting %v: %w", batch[k], err)
			}
			st.live = append(st.live, liveChannel{ch: ch, spec: batch[k], started: w.FabricOffsets[i]})
			i++
		}
	}
	st.all = append(st.all, st.live...)
	if m != nil {
		m.counts["fabric_admitted"] = int64(len(st.live))
	}
	return st, nil
}

// run executes one pass of dataplane-sim.
func (w *simWorkload) run(traced bool) (*measured, error) {
	m := newMeasured()
	resetPeakRSS()
	var rec *recorder
	if traced {
		rec = newRecorder(time.Now())
		m.recorders = []*recorder{rec}
	}
	var star, fabric *simState
	for rep := 0; rep < w.sizes.setupReps; rep++ {
		if star != nil {
			_ = star.net.Close()
			_ = fabric.net.Close()
		}
		t0 := time.Now()
		var err error
		if star, err = w.setUpStar(m); err != nil {
			return nil, err
		}
		if fabric, err = w.setUpFabric(m); err != nil {
			return nil, err
		}
		m.setups = append(m.setups, time.Since(t0).Seconds())
	}
	p := &simPass{m: m, rec: rec, reads: w.Reads}
	w.runStar(p, star)
	w.runFabric(p, fabric)
	w.checkPromise(m, "star", star, int64(w.sizes.starBlocks)*w.sizes.blockSlots)
	w.checkPromise(m, "fabric", fabric, int64(w.sizes.fabricBlocks)*w.sizes.blockSlots)
	m.counts["establishes"] = m.establishes
	m.counts["accepted"] = m.accepted
	m.counts["delivered"] = m.delivered
	_ = star.net.Close()
	_ = fabric.net.Close()
	var err error
	if m.peakRSSMB, err = procPeakRSSMB(selfPID()); err != nil {
		return nil, err
	}
	return m, nil
}

// simPass is the state the timed steps of one pass share: where samples
// and spans go, the data plane being driven, and the seeded read picks
// not yet used.
type simPass struct {
	m     *measured
	rec   *recorder
	seg   *segment
	epoch time.Time
	st    *simState
	reads []int
	opID  int64
}

// begin points the pass at one data plane and opens its segment.
func (p *simPass) begin(name string, st *simState) {
	p.seg, p.st, p.epoch = p.m.segment(name), st, time.Now()
}

// finish closes the segment.
func (p *simPass) finish() { p.seg.wall = time.Since(p.epoch) }

// runBlock advances the simulation by one timed block of slots.
func (p *simPass) runBlock(class string, slots int64) {
	p.opID++
	root, d := p.rec.timed("run", "Network.RunFor", p.opID, func() { p.st.net.RunFor(slots) })
	p.seg.add(p.epoch, class, d, slots)
	p.m.attempted++
	p.rec.end(root)
}

// readBlock times readsPerBlock Metrics reads as one read sample
// carrying the per-read latency.
func (p *simPass) readBlock() {
	p.opID++
	live := p.st.live
	root, d := p.rec.timed(clsRead, "Channel.Metrics", p.opID, func() {
		for _, pick := range p.reads[:readsPerBlock] {
			lc := live[pick%len(live)]
			if mt := lc.ch.Metrics(); mt != nil && mt.Misses != 0 {
				p.m.fail("channel %d reports %d deadline misses", lc.ch.ID(), mt.Misses)
			}
		}
	})
	p.reads = p.reads[readsPerBlock:]
	p.seg.samples = append(p.seg.samples, sample{class: clsRead, lat: d.Nanoseconds() / readsPerBlock, end: time.Since(p.epoch).Nanoseconds(), n: readsPerBlock})
	p.m.attempted += readsPerBlock
	p.rec.end(root)
}

// reconfigure tears one admitted channel down over the simulated wire
// and re-establishes it by the handshake; the freed reservation is
// exactly what the request asks back, so it must be accepted.
func (p *simPass) reconfigure(pick int) {
	m, st := p.m, p.st
	i := pick % len(st.live)
	old := st.live[i]
	p.opID++
	var err error
	root, d := p.rec.timed(clsRelease, "Channel.Teardown", p.opID, func() { err = old.ch.Teardown() })
	p.seg.add(p.epoch, clsRelease, d, 1)
	m.attempted++
	if err != nil {
		m.fail("star: teardown of channel %d: %v", old.ch.ID(), err)
	}
	p.rec.end(root)

	p.opID++
	var ch *rtether.Channel
	root, d = p.rec.timed(clsEstablish, "Network.Establish", p.opID, func() { ch, err = st.net.Establish(old.spec) })
	p.seg.add(p.epoch, clsEstablish, d, 1)
	m.attempted++
	m.establishes++
	if err != nil {
		m.fail("star: re-establishing %v after its teardown: %v", old.spec, err)
		st.live = append(st.live[:i], st.live[i+1:]...)
	} else {
		m.accepted++
		if b := ch.Budgets(); sum(b) != old.spec.D {
			m.fail("star: %v: budgets %v do not sum to D", old.spec, b)
		}
		if err := ch.Start(0); err != nil {
			m.fail("star: starting re-established channel: %v", err)
		}
		st.live[i] = liveChannel{ch: ch, spec: old.spec, started: st.net.Now()}
		st.all = append(st.all, st.live[i])
	}
	p.rec.end(root)
}

// runStar advances the star block by block under seeded best-effort
// background load. After every block a few admitted channels are
// reconfigured the way the paper's protocol does it — torn down over the
// simulated wire, then re-established by the RequestFrame/ResponseFrame
// handshake — and blocks of metrics are read.
func (w *simWorkload) runStar(p *simPass, st *simState) {
	p.begin("star", st)
	bg := rand.New(rand.NewSource(w.BGSeed))
	for b := 0; b < w.sizes.starBlocks; b++ {
		now := st.net.Now()
		for _, f := range w.BG {
			src, dst := f[0], f[1]
			for _, at := range traffic.PoissonArrivals(bg, bgRate, w.sizes.blockSlots) {
				st.net.Schedule(now+at, func() { st.net.SendBestEffort(src, dst, []byte("bg")) })
			}
		}
		p.runBlock(clsRunStar, w.sizes.blockSlots)
		for _, pick := range w.Reconfig[b*reconfigs : (b+1)*reconfigs] {
			p.reconfigure(pick)
		}
		for k := 0; k < readBlocks; k++ {
			p.readBlock()
		}
	}
	p.finish()
}

// runFabric advances the fabric block by block, reading blocks of
// metrics after each.
func (w *simWorkload) runFabric(p *simPass, st *simState) {
	p.begin("fabric", st)
	for b := 0; b < w.sizes.fabricBlocks; b++ {
		p.runBlock(clsRunFabric, w.sizes.blockSlots)
		for k := 0; k < readBlocks; k++ {
			p.readBlock()
		}
	}
	p.finish()
}

// checkPromise is the data-plane oracle: on every channel that ever
// carried traffic there are zero deadline misses, the worst observed
// delay is within the guaranteed delay, and a channel that ran for
// whole periods delivered at least its frames for them. ran is the
// virtual time RunFor covered; the rest of the clock went to
// establishment handshakes, during which netsim's periodic sources
// pause, so it does not count towards the periods owed.
func (w *simWorkload) checkPromise(m *measured, name string, st *simState, ran int64) {
	now := st.net.Now()
	paused := now - ran
	live := make(map[*rtether.Channel]bool, len(st.live))
	for _, lc := range st.live {
		live[lc.ch] = true
	}
	for _, lc := range st.all {
		m.attempted++
		mt := lc.ch.Metrics()
		periods := (now-lc.started-lc.ch.GuaranteedDelay()-paused)/lc.spec.P - 1
		if mt == nil {
			if periods > 0 && live[lc.ch] {
				m.fail("%s: channel %d ran %d periods and delivered nothing", name, lc.ch.ID(), periods)
			}
			continue
		}
		m.delivered += mt.Delivered
		m.misses += mt.Misses
		switch {
		case mt.Misses != 0:
			m.fail("%s: channel %d missed %d deadlines", name, lc.ch.ID(), mt.Misses)
		case mt.Delays.Max() > lc.ch.GuaranteedDelay():
			m.fail("%s: channel %d: worst delay %d exceeds the guarantee %d", name, lc.ch.ID(), mt.Delays.Max(), lc.ch.GuaranteedDelay())
		case live[lc.ch] && mt.Delivered < periods*lc.spec.C:
			m.fail("%s: channel %d delivered %d frames in %d periods of C=%d", name, lc.ch.ID(), mt.Delivered, periods, lc.spec.C)
		}
	}
}

func selfPID() int { return os.Getpid() }
