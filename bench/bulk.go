package main

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/rtether"
)

// bulkSizes fixes the population sizes of provision-bulk.
type bulkSizes struct {
	all           int // channels admitted by the one EstablishAll
	live          int // standing population after the EstablishEach groups
	group         int // EstablishEach group size
	provisionReps int // fresh builds of the standing population per layout
	seqPairs      int // release→establish pairs of the sequential phase, per layout
	readSweeps    int // full read sweeps over every handle, per layout
	failoverN     int // channels crossing the failed trunk
	failoverReps  int // fresh ring builds
	warmOps       int
	setupReps     int
}

// readBlock is how many handle reads one read sample times.
const readBlock = 1000

// rejectEvery makes every n-th sequential establish ask for a whole link
// (C = P), which the utilization test must refuse on a loaded link: the
// by-construction rejection the oracle checks.
const rejectEvery = 16

// bulkLayoutInput is one layout's generated inputs.
type bulkLayoutInput struct {
	Layout layout
	Specs  []rtether.ChannelSpec // the standing population, in admission order
	Seq    []op                  // sequential phase: releases name a position in the live set
	Want   []bool                // expected verdict of every establish in Seq
}

// bulkWorkload is provision-bulk: one in-process caller provisioning
// and churning fleet-scale populations on a star and on a fabric.
type bulkWorkload struct {
	sizes    bulkSizes
	Layouts  []*bulkLayoutInput
	Ring     layout
	RingSpec []rtether.ChannelSpec
}

// bulkNodes is the end-node count per side of the bulk layouts.
const bulkNodes = 100

// genBulk generates provision-bulk's inputs. Pairings are drawn from the
// seed; the channel parameters are the admission-scale benchmark's, so
// every population below is feasible by construction and the only
// rejections are the saturating requests.
func genBulk(seed int64, sz bulkSizes) *bulkWorkload {
	w := &bulkWorkload{sizes: sz}
	var starNodes []uint16
	for i := 1; i <= bulkNodes; i++ {
		starNodes = append(starNodes, uint16(westBase+i))
	}
	for i := 1; i <= bulkNodes; i++ {
		starNodes = append(starNodes, uint16(eastBase+i))
	}
	layouts := []struct {
		l    layout
		p, d int64
	}{
		{starLayout("bulk-star", "adps", starNodes), 10000, 2000},
		// Longer periods and deadlines keep the shared trunks feasible at
		// 10k unit-capacity channels (a trunk serving k of them needs a
		// per-hop budget of at least k slots).
		{fabricLayout("bulk-line", "sdps", bulkNodes), 100000, 50000},
	}
	for k, lp := range layouts {
		rng := rand.New(rand.NewSource(seed*1019 + int64(k)))
		spec := func() rtether.ChannelSpec {
			return rtether.ChannelSpec{
				Src: rtether.NodeID(westBase + 1 + rng.Intn(bulkNodes)),
				Dst: rtether.NodeID(eastBase + 1 + rng.Intn(bulkNodes)),
				C:   1, P: lp.p, D: lp.d,
			}
		}
		in := &bulkLayoutInput{Layout: lp.l}
		for i := 0; i < sz.live; i++ {
			in.Specs = append(in.Specs, spec())
		}
		for i := 0; i < sz.seqPairs; i++ {
			in.Seq = append(in.Seq, op{Kind: opRelease, Slot: int32(rng.Intn(sz.live))})
			in.Seq = append(in.Seq, op{Kind: opEstablish, Spec: spec()})
			in.Want = append(in.Want, true)
			if i%rejectEvery == rejectEvery-1 {
				s := spec()
				s.C, s.D = s.P, 8*s.P
				in.Seq = append(in.Seq, op{Kind: opEstablish, Spec: s})
				in.Want = append(in.Want, false)
			}
		}
		w.Layouts = append(w.Layouts, in)
	}
	w.Ring = ringLayout(bulkNodes)
	w.RingSpec = ringSpecs(seed, sz.failoverN)
	return w
}

// ringSpecs draws n west→east channels for the failover ring.
func ringSpecs(seed int64, n int) []rtether.ChannelSpec {
	rng := rand.New(rand.NewSource(seed*1019 + 7))
	specs := make([]rtether.ChannelSpec, n)
	for i := range specs {
		specs[i] = rtether.ChannelSpec{
			Src: rtether.NodeID(westBase + 1 + rng.Intn(bulkNodes)),
			Dst: rtether.NodeID(eastBase + 1 + rng.Intn(bulkNodes)),
			C:   1, P: 100000, D: 50000,
		}
	}
	return specs
}

// setUp builds both layouts' networks and runs the warm-up cycles on
// them: what a caller pays before its first measured operation.
func (w *bulkWorkload) setUp() ([]*rtether.Network, error) {
	nets := make([]*rtether.Network, len(w.Layouts))
	for k, in := range w.Layouts {
		net := in.Layout.network()
		for i := 0; i < w.sizes.warmOps/(2*len(w.Layouts)); i++ {
			ch, err := net.Establish(in.Specs[i%len(in.Specs)])
			if err != nil {
				return nil, fmt.Errorf("provision-bulk: warm-up on %s: %w", in.Layout.Name, err)
			}
			if err := ch.Release(); err != nil {
				return nil, fmt.Errorf("provision-bulk: warm-up on %s: %w", in.Layout.Name, err)
			}
		}
		nets[k] = net
	}
	return nets, nil
}

// run executes one pass of provision-bulk.
func (w *bulkWorkload) run(traced bool) (*measured, error) {
	m := newMeasured()
	resetPeakRSS()
	var rec *recorder
	if traced {
		rec = newRecorder(time.Now())
		m.recorders = []*recorder{rec}
	}
	var nets []*rtether.Network
	// Networks are dropped, not closed: Close releases channel by channel,
	// which at 10k live channels costs seconds nobody is measuring.
	for rep := 0; rep < w.sizes.setupReps; rep++ {
		t0 := time.Now()
		var err error
		if nets, err = w.setUp(); err != nil {
			return nil, err
		}
		m.setups = append(m.setups, time.Since(t0).Seconds())
	}
	opID := int64(0)
	for k, in := range w.Layouts {
		handles, err := w.provision(m, rec, in, nets[k], &opID)
		if err != nil {
			return nil, err
		}
		handles = w.sequential(m, rec, in, nets[k], handles, &opID)
		w.readSweep(m, rec, in, handles, &opID)
		m.attempted++
		if st := nets[k].AdmissionStats(); st.Accepted-st.Released != len(handles) || len(nets[k].Channels()) != len(handles) {
			m.fail("%s: %d channels established, accepted-released = %d, handles = %d",
				in.Layout.Name, len(nets[k].Channels()), st.Accepted-st.Released, len(handles))
		}
		m.counts["final_channels."+in.Layout.Name] = int64(len(handles))
	}
	if err := w.failover(m, rec, &opID); err != nil {
		return nil, err
	}
	m.counts["establishes"] = m.establishes
	m.counts["accepted"] = m.accepted
	var err error
	if m.peakRSSMB, err = procPeakRSSMB(selfPID()); err != nil {
		return nil, err
	}
	return m, nil
}

// provision builds the standing population provisionReps times — one
// EstablishAll, then EstablishEach groups up to the full size — on fresh
// networks (the set-up's network hosts the last build, which the later
// phases keep using) and returns the last build's handles.
func (w *bulkWorkload) provision(m *measured, rec *recorder, in *bulkLayoutInput, last *rtether.Network, opID *int64) ([]*rtether.Channel, error) {
	seg := m.segment("provision/" + in.Layout.Name)
	var handles []*rtether.Channel
	for rep := 0; rep < w.sizes.provisionReps; rep++ {
		net := last
		if rep < w.sizes.provisionReps-1 {
			net = in.Layout.network()
		}
		epoch := time.Now()
		var build time.Duration // time inside the batch calls of this build
		handles = handles[:0]
		*opID++
		var chs []*rtether.Channel
		var err error
		root, d := rec.timed(clsBulk, "Network.EstablishAll", *opID, func() { chs, err = net.EstablishAll(in.Specs[:w.sizes.all]) })
		rec.end(root)
		if err != nil {
			return nil, fmt.Errorf("provision-bulk: EstablishAll on %s: %w", in.Layout.Name, err)
		}
		build += d
		m.attempted += int64(len(chs))
		m.establishes += int64(len(chs))
		m.accepted += int64(len(chs))
		handles = append(handles, chs...)
		for lo := w.sizes.all; lo < w.sizes.live; lo += w.sizes.group {
			hi := min(lo+w.sizes.group, w.sizes.live)
			*opID++
			var errs []error
			root, d := rec.timed(clsBulk, "Network.EstablishEach", *opID, func() { chs, errs = net.EstablishEach(in.Specs[lo:hi]) })
			build += d
			m.attempted += int64(hi - lo)
			m.establishes += int64(hi - lo)
			for i, err := range errs {
				if err != nil {
					m.fail("%s: group spec %v rejected: %v", in.Layout.Name, in.Specs[lo+i], err)
					continue
				}
				m.accepted++
				handles = append(handles, chs[i])
			}
			rec.end(root)
		}
		// One sample per build: the whole standing population and the time
		// its batch calls took.
		seg.add(epoch, clsBulk, build, int64(len(handles)))
		seg.wall += build
		for _, ch := range handles {
			if b := ch.Budgets(); sum(b) != ch.Spec().D {
				m.fail("%s: channel %d: budgets %v do not sum to D=%d", in.Layout.Name, ch.ID(), b, ch.Spec().D)
			}
		}
		if net != last {
			// Collect the dropped build now, between timed regions, so the
			// peak heap does not depend on when the collector happens to run.
			handles, net = handles[:0], nil
			runtime.GC()
		}
	}
	return handles, nil
}

// sequential runs the release→establish churn at the standing size.
func (w *bulkWorkload) sequential(m *measured, rec *recorder, in *bulkLayoutInput, net *rtether.Network, handles []*rtether.Channel, opID *int64) []*rtether.Channel {
	seg := m.segment("sequential/" + in.Layout.Name)
	seg.samples = make([]sample, 0, len(in.Seq))
	epoch := time.Now()
	est := 0
	for _, o := range in.Seq {
		*opID++
		switch o.Kind {
		case opRelease:
			i := int(o.Slot) % len(handles)
			ch := handles[i]
			handles[i] = handles[len(handles)-1]
			handles = handles[:len(handles)-1]
			var err error
			root, d := rec.timed(clsRelease, "Channel.Release", *opID, func() { err = ch.Release() })
			seg.add(epoch, clsRelease, d, 1)
			m.attempted++
			if err != nil {
				m.fail("%s: release %d: %v", in.Layout.Name, ch.ID(), err)
			}
			rec.end(root)
		case opEstablish:
			var ch *rtether.Channel
			var err error
			root, d := rec.timed(clsEstablish, "Network.Establish", *opID, func() { ch, err = net.Establish(o.Spec) })
			seg.add(epoch, clsEstablish, d, 1)
			m.attempted++
			m.establishes++
			want := in.Want[est]
			est++
			switch {
			case err == nil && !want:
				m.fail("%s: saturating %v accepted", in.Layout.Name, o.Spec)
				handles = append(handles, ch)
				m.accepted++
			case err == nil:
				m.accepted++
				handles = append(handles, ch)
				if b := ch.Budgets(); sum(b) != o.Spec.D {
					m.fail("%s: %v: budgets %v do not sum to D", in.Layout.Name, o.Spec, b)
				}
			case !errors.Is(err, rtether.ErrInfeasible):
				m.fail("%s: establish %v: %v", in.Layout.Name, o.Spec, err)
			case want:
				m.fail("%s: feasible %v rejected: %v", in.Layout.Name, o.Spec, err)
			}
			rec.end(root)
		}
	}
	seg.wall = time.Since(epoch)
	return handles
}

// readSweep reads Spec, Budgets and Metrics of every handle, timing
// blocks of readBlock reads.
func (w *bulkWorkload) readSweep(m *measured, rec *recorder, in *bulkLayoutInput, handles []*rtether.Channel, opID *int64) {
	seg := m.segment("reads/" + in.Layout.Name)
	epoch := time.Now()
	const perHandle = 3
	step := readBlock / perHandle
	for sweep := 0; sweep < w.sizes.readSweeps; sweep++ {
		for lo := 0; lo < len(handles); lo += step {
			hi := min(lo+step, len(handles))
			*opID++
			bad := 0
			root, d := rec.timed(clsRead, "Channel.Spec+Budgets+Metrics", *opID, func() {
				for _, ch := range handles[lo:hi] {
					spec := ch.Spec()
					if sum(ch.Budgets()) != spec.D || ch.Metrics() != nil {
						bad++
					}
				}
			})
			reads := int64(perHandle * (hi - lo))
			// One sample per block, carrying the per-read latency.
			seg.samples = append(seg.samples, sample{class: clsRead, lat: d.Nanoseconds() / reads, end: time.Since(epoch).Nanoseconds(), n: reads})
			m.attempted += reads
			for i := 0; i < bad; i++ {
				m.fail("%s: read sweep: handle reads inconsistent with the committed channel", in.Layout.Name)
			}
			rec.end(root)
		}
	}
	seg.wall = time.Since(epoch)
}

// failover fails the ring's 0-1 trunk under failoverN crossing channels,
// on failoverReps fresh builds; every channel must come back Rerouted.
func (w *bulkWorkload) failover(m *measured, rec *recorder, opID *int64) error {
	seg := m.segment("failover")
	epoch := time.Now()
	for rep := 0; rep < w.sizes.failoverReps; rep++ {
		net := w.Ring.network()
		if _, err := net.EstablishAll(w.RingSpec); err != nil {
			return fmt.Errorf("provision-bulk: ring preload: %w", err)
		}
		*opID++
		var fr *rtether.FailoverReport
		var err error
		root, d := rec.timed(clsFailover, "Network.SetLinkUp", *opID, func() { fr, err = net.SetLinkUp(0, 1, false) })
		if err != nil {
			return fmt.Errorf("provision-bulk: SetLinkUp: %w", err)
		}
		seg.add(epoch, clsFailover, d, int64(fr.Affected))
		seg.wall += d
		m.attempted += int64(len(w.RingSpec))
		if fr.Affected != len(w.RingSpec) || fr.Count(rtether.Rerouted) != len(w.RingSpec) {
			m.fail("failover: %d affected, %d rerouted, want %d of each", fr.Affected, fr.Count(rtether.Rerouted), len(w.RingSpec))
		}
		rec.end(root)
		net = nil
		runtime.GC() // as in provision: drop the build between timed regions
	}
	return nil
}
