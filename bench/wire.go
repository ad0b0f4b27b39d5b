package main

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/rtether"
	"repro/rtether/client"
	"repro/rtether/wire"
)

// wireWorkload describes one daemon-backed workload: the topology the
// rtetherd child hosts, the transport and connection count the callers
// share, and the callers' generated inputs.
type wireWorkload struct {
	name      string
	layout    layout
	transport client.Transport
	conns     int
	callers   []*callerInput
	warmOps   int // total warm-up operations per set-up, spread over the callers
	setupReps int // set-ups per run; the last one hosts the measured phase
}

// setUp boots a daemon, preloads every caller's standing channels and
// runs the warm-up cycles; it returns the daemon, the callers' clients
// and each caller's preload channel IDs.
func (w *wireWorkload) setUp(ws *workspace, spans int, m *measured) (*daemon, []*client.Client, [][]rtether.ChannelID, error) {
	d, err := ws.startDaemon(w.layout, spans)
	if err != nil {
		return nil, nil, nil, err
	}
	cls := make([]*client.Client, w.conns)
	for i := range cls {
		cls[i] = d.dial(w.transport)
	}
	ctx := context.Background()
	preIDs := make([][]rtether.ChannelID, len(w.callers))
	for k, c := range w.callers {
		if len(c.Preload) == 0 {
			continue
		}
		chs, err := cls[k%len(cls)].EstablishAll(ctx, c.Preload)
		if err != nil {
			d.stop()
			return nil, nil, nil, fmt.Errorf("%s: caller %s: preload: %w", w.name, c.Name, err)
		}
		for i, ch := range chs {
			preIDs[k] = append(preIDs[k], ch.ID)
			if !slices.Equal(ch.Budgets, c.PreloadBudgets[i]) {
				m.fail("caller %s: preload %d: budgets %v, oracle %v", c.Name, i, ch.Budgets, c.PreloadBudgets[i])
			}
		}
	}
	cycles := w.warmOps / (2 * len(w.callers))
	var wg sync.WaitGroup
	errs := make([]error, len(w.callers))
	for k, c := range w.callers {
		wg.Add(1)
		go func(k int, c *callerInput) {
			defer wg.Done()
			cl := cls[k%len(cls)]
			for i := 0; i < cycles; i++ {
				ch, err := cl.Establish(ctx, c.Warm)
				if err != nil {
					errs[k] = fmt.Errorf("caller %s: warm-up establish: %w", c.Name, err)
					return
				}
				if err := cl.Release(ctx, ch.ID); err != nil {
					errs[k] = fmt.Errorf("caller %s: warm-up release: %w", c.Name, err)
					return
				}
			}
		}(k, c)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		d.stop()
		return nil, nil, nil, fmt.Errorf("%s: %w", w.name, err)
	}
	return d, cls, preIDs, nil
}

// run executes one pass: setupReps set-ups (each a fresh daemon; all but
// the last are torn down at once), then the closed-loop measured phase
// on the last, then the output checks. With traced set, every caller
// records spans and the daemon runs with a flight recorder large enough
// to keep every flight of the pass.
func (w *wireWorkload) run(ws *workspace, traced bool) (*measured, error) {
	m := newMeasured()
	spans := 0
	if traced {
		for _, c := range w.callers {
			spans += len(c.Stream)
		}
		spans += w.warmOps + 1024
	}
	var (
		d      *daemon
		cls    []*client.Client
		preIDs [][]rtether.ChannelID
	)
	for rep := 0; rep < w.setupReps; rep++ {
		if d != nil {
			d.stop()
		}
		t0 := time.Now()
		var err error
		d, cls, preIDs, err = w.setUp(ws, spans, m)
		if err != nil {
			return nil, err
		}
		m.setups = append(m.setups, time.Since(t0).Seconds())
	}
	defer d.stop()

	ctx := context.Background()
	mt, err := d.startMeter(ctx, m)
	if err != nil {
		return nil, err
	}

	runs := make([]*callerRun, len(w.callers))
	epoch := time.Now()
	var wg sync.WaitGroup
	start := make(chan struct{})
	for k, c := range w.callers {
		cr := &callerRun{in: c, cl: cls[k%len(cls)], m: newMeasured(), epoch: epoch, preload: len(preIDs[k]), opBase: int64(k) << 32}
		if traced {
			cr.rec = newRecorder(epoch)
		}
		cr.prepare()
		runs[k] = cr
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			cr.run(ctx)
		}()
	}
	m.phaseStart = epoch
	close(start)
	wg.Wait()
	seg := m.segment("closed-loop")
	seg.wall = time.Since(epoch)

	if err := mt.stop(ctx, m, traced); err != nil {
		return nil, err
	}

	wantLive := 0
	for k, cr := range runs {
		seg.samples = append(seg.samples, cr.samples...)
		m.attempted += cr.m.attempted
		m.failed += cr.m.failed
		m.establishes += cr.m.establishes
		m.accepted += cr.m.accepted
		for _, f := range cr.m.failures {
			if len(m.failures) < 8 {
				m.failures = append(m.failures, f)
			}
		}
		m.recorders = append(m.recorders, cr.rec)
		wantLive += len(preIDs[k]) + len(cr.order)
		m.counts["ops."+cr.in.Name] = cr.m.attempted
	}
	st, err := mt.admin.Stats(ctx)
	if err != nil {
		return nil, fmt.Errorf("%s: final stats: %w", w.name, err)
	}
	m.attempted++
	if int(st.Server.Channels) != wantLive {
		m.fail("final stats: %d channels established, accepted-released = %d", st.Server.Channels, wantLive)
	}
	m.counts["establishes"] = m.establishes
	m.counts["accepted"] = m.accepted
	m.counts["final_channels"] = int64(wantLive)
	if m.peakRSSMB, err = procPeakRSSMB(d.pid()); err != nil {
		return nil, err
	}
	return m, nil
}

// callerRun is one closed-loop caller of the measured phase: it issues
// its stream one operation at a time, waiting for each reply, and checks
// every reply against the oracle.
type callerRun struct {
	in      *callerInput
	cl      *client.Client
	m       *measured // this caller's counts and failures
	samples []sample
	epoch   time.Time
	rec     *recorder
	preload int
	opBase  int64

	ids    []rtether.ChannelID         // live channel ID per slot, 0 when not established
	slotOf map[rtether.ChannelID]int32 // reverse of ids
	order  []int32                     // live slots in establish order
}

// prepare sizes the sample buffers so the measured loop allocates
// nothing of its own.
func (cr *callerRun) prepare() {
	slots := 0
	for _, o := range cr.in.Stream {
		if o.Kind == opEstablish || o.Kind == opMulticast {
			slots++
		}
	}
	cr.samples = make([]sample, 0, len(cr.in.Stream))
	cr.ids = make([]rtether.ChannelID, slots)
	cr.slotOf = make(map[rtether.ChannelID]int32, 256)
	if cr.rec != nil {
		cr.rec.spans = make([]span, 0, 2*len(cr.in.Stream))
	}
}

// run issues the stream. Liveness follows the daemon's own answers, so a
// verdict that differs from the oracle's is counted once and the run
// continues against the state the daemon really has.
func (cr *callerRun) run(ctx context.Context) {
	m := cr.m
	for i, o := range cr.in.Stream {
		w := &cr.in.Want[i]
		opID := cr.opBase + int64(i)
		var root int32
		switch o.Kind {
		case opEstablish, opMulticast:
			var ch client.Channel
			var err error
			if o.Kind == opMulticast {
				root = cr.timed(clsEstablish, "client.EstablishMulticast", opID, func() { ch, err = cr.cl.EstablishMulticast(ctx, o.multicast()) })
			} else {
				root = cr.timed(clsEstablish, "client.Establish", opID, func() { ch, err = cr.cl.Establish(ctx, o.Spec) })
			}
			m.establishes++
			cr.checkEstablish(i, o, w, ch, err)

		case opRelease:
			id := cr.ids[o.Slot]
			if id == 0 {
				continue
			}
			var err error
			root = cr.timed(clsRelease, "client.Release", opID, func() { err = cr.cl.Release(ctx, id) })
			if err != nil {
				m.fail("caller %s: op %d: release %d: %v", cr.in.Name, i, id, err)
			}
			cr.forget(o.Slot)

		case opReadMetrics:
			id := cr.ids[o.Slot]
			if id == 0 {
				continue
			}
			var rep wire.MetricsReply
			var err error
			root = cr.timed(clsRead, "client.Metrics", opID, func() { rep, err = cr.cl.Metrics(ctx, id) })
			if err != nil || rtether.ChannelID(rep.ID) != id || rep.Misses != 0 {
				m.fail("caller %s: op %d: metrics of %d: %+v, %v", cr.in.Name, i, id, rep, err)
			}

		case opReadChannels:
			var infos []wire.ChannelInfo
			var err error
			root = cr.timed(clsRead, "client.Channels", opID, func() { infos, err = cr.cl.Channels(ctx) })
			cr.checkChannels(i, w, infos, err)

		case opReadStats:
			var st wire.StatsReply
			var err error
			root = cr.timed(clsRead, "client.Stats", opID, func() { st, err = cr.cl.Stats(ctx) })
			if err != nil || int(st.Server.Channels) < cr.preload+len(cr.order) {
				m.fail("caller %s: op %d: stats: %d channels, own %d, %v",
					cr.in.Name, i, st.Server.Channels, cr.preload+len(cr.order), err)
			}
		}
		cr.rec.end(root) // the operation span covers the reply check too
	}
}

// timed issues one client call inside an operation span, records its
// latency as a sample and counts the attempt; it returns the operation
// span, which the caller ends once the reply is checked.
func (cr *callerRun) timed(class, call string, opID int64, fn func()) int32 {
	root, d := cr.rec.timed(class, call, opID, fn)
	cr.samples = append(cr.samples, sample{class: class, lat: d.Nanoseconds(), end: time.Since(cr.epoch).Nanoseconds(), n: 1})
	cr.m.attempted++
	return root
}

// checkEstablish compares one establish reply with the oracle: same
// verdict, same committed budgets, budgets summing to D on every
// source→sink path (a unicast route is one path) and the guarantee
// T_max = D. A rejection must be the typed feasibility error.
func (cr *callerRun) checkEstablish(i int, o op, w *want, ch client.Channel, err error) {
	m := cr.m
	if err != nil {
		if !errors.Is(err, rtether.ErrInfeasible) {
			m.fail("caller %s: op %d: establish %v: %v", cr.in.Name, i, o.Spec, err)
			return
		}
		if w.Accept {
			m.fail("caller %s: op %d: %v rejected, oracle accepts", cr.in.Name, i, o.Spec)
		}
		return
	}
	m.accepted++
	cr.ids[o.Slot] = ch.ID
	cr.slotOf[ch.ID] = o.Slot
	cr.order = append(cr.order, o.Slot)
	switch {
	case !w.Accept:
		m.fail("caller %s: op %d: %v accepted, oracle rejects", cr.in.Name, i, o.Spec)
	case !slices.Equal(ch.Budgets, w.Budgets):
		m.fail("caller %s: op %d: budgets %v, oracle %v", cr.in.Name, i, ch.Budgets, w.Budgets)
	case o.Kind == opEstablish && sum(ch.Budgets) != o.Spec.D:
		m.fail("caller %s: op %d: budgets %v do not sum to D=%d", cr.in.Name, i, ch.Budgets, o.Spec.D)
	case ch.GuaranteedDelay != o.Spec.D:
		m.fail("caller %s: op %d: guaranteed delay %d, D=%d", cr.in.Name, i, ch.GuaranteedDelay, o.Spec.D)
	}
}

// checkChannels verifies a channel listing against the oracle: every one
// of the caller's live channels is listed with the budgets the oracle
// holds for it at this point of the stream.
func (cr *callerRun) checkChannels(i int, w *want, infos []wire.ChannelInfo, err error) {
	if err != nil {
		cr.m.fail("caller %s: op %d: channels: %v", cr.in.Name, i, err)
		return
	}
	budgets := make(map[int32][]int64, len(cr.order))
	for _, info := range infos {
		if slot, ok := cr.slotOf[rtether.ChannelID(info.ID)]; ok {
			budgets[slot] = info.Budgets
		}
	}
	if len(budgets) != w.Live {
		cr.m.fail("caller %s: op %d: %d own channels listed, oracle has %d", cr.in.Name, i, len(budgets), w.Live)
		return
	}
	if got := digestBudgets(cr.order, func(s int32) []int64 { return budgets[s] }); got != w.Digest {
		cr.m.fail("caller %s: op %d: listed budgets differ from the oracle's", cr.in.Name, i)
	}
}

// forget drops a released slot from the live bookkeeping.
func (cr *callerRun) forget(slot int32) {
	delete(cr.slotOf, cr.ids[slot])
	cr.ids[slot] = 0
	for j, s := range cr.order {
		if s == slot {
			cr.order = append(cr.order[:j], cr.order[j+1:]...)
			break
		}
	}
}

func sum(vs []int64) int64 {
	var s int64
	for _, v := range vs {
		s += v
	}
	return s
}
