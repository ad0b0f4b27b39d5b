package main

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/rtether"
	"repro/rtether/client"
)

// wireFigures are the client- and server-side layer figures of one pass
// against a daemon, on one transport.
type wireFigures struct {
	ops          int
	statsRTTus   float64 // median Client.Stats round trip on a quiet daemon
	rttMeanUs    float64 // mean caller-observed establish latency
	rttP50Us     float64
	dispatchNs   float64 // mean of the daemon's own establish request duration
	flights      float64
	mergeWidth   float64 // establishes per flight
	waitNs       float64 // per establish, weighted by flight size
	admitNs      float64
	verifyNs     float64
	publishNs    float64
	cpuUtil      float64 // daemon CPU seconds per wall second
	loadgenShare float64 // benchmark CPU / (benchmark + daemon CPU)
	allocsPerOp  float64 // benchmark-process heap allocations per operation
}

// transportName labels a transport in metric names.
func transportName(t client.Transport) string {
	if t == client.TransportBinary {
		return "binary"
	}
	return "json"
}

// establishSeries names the daemon's establish duration series for a
// transport (unicast, multicast).
func establishSeries(t client.Transport) [2]string {
	if t == client.TransportBinary {
		return [2]string{`rtether_binary_request_duration_ns%s{msg="establish"}`, `rtether_binary_request_duration_ns%s{msg="multicast"}`}
	}
	return [2]string{`rtether_request_duration_ns%s{endpoint="/v1/establish"}`, `rtether_request_duration_ns%s{endpoint="/v1/multicast"}`}
}

// figures folds a traced pass against a daemon into wireFigures. Only
// flights launched during the measured phase count (the recorder also
// holds the warm-up's).
func (m *measured) figures(t client.Transport, phaseStart time.Time) wireFigures {
	var f wireFigures
	seg := m.segments[0]
	var lats []int64
	for _, s := range seg.samples {
		if s.class == clsEstablish {
			lats = append(lats, s.lat)
		}
	}
	f.ops = len(seg.samples)
	f.rttMeanUs = meanInt(lats) / 1e3
	f.rttP50Us = float64(percentile(sortedCopy(lats), 50)) / 1e3
	var sumNs, count float64
	for _, series := range establishSeries(t) {
		sumNs += m.promAfter[fmt.Sprintf(series, "_sum")] - m.promBefore[fmt.Sprintf(series, "_sum")]
		count += m.promAfter[fmt.Sprintf(series, "_count")] - m.promBefore[fmt.Sprintf(series, "_count")]
	}
	if count > 0 {
		f.dispatchNs = sumNs / count
	}
	var merged float64
	for _, fl := range m.flights {
		if fl.StartUnixNano < phaseStart.UnixNano() {
			continue
		}
		n := float64(fl.Merged)
		f.flights++
		merged += n
		f.waitNs += n * float64(fl.WaitNs)
		f.admitNs += n * float64(fl.AdmitNs)
		f.verifyNs += n * float64(fl.VerifyNs)
		f.publishNs += n * float64(fl.PublishNs)
	}
	if merged > 0 {
		f.mergeWidth = merged / f.flights
		f.waitNs /= merged
		f.admitNs /= merged
		f.verifyNs /= merged
		f.publishNs /= merged
	}
	if w := seg.wall.Seconds(); w > 0 {
		f.cpuUtil = m.daemonCPU / w
	}
	if cpu := m.loadgenCPU + m.daemonCPU; cpu > 0 {
		f.loadgenShare = m.loadgenCPU / cpu
	}
	if f.ops > 0 {
		f.allocsPerOp = float64(m.mallocs) / float64(f.ops)
	}
	return f
}

// statsProbeCalls is how many Stats round trips the transport-floor
// probe times.
const statsProbeCalls = 400

// wireProbe boots a daemon on the engine input's layout, admits its
// start batch, times Stats round trips while nothing else runs (the
// transport floor: no admission work), then replays the stream from one
// sequential caller with spans on. It is how the in-process workloads
// get client.* and server.* figures on their own specs, and how every
// workload gets them on the transport it does not itself use.
func (ws *workspace) wireProbe(in *engineInput, t client.Transport, statsCalls int, rec *recorder) (wireFigures, error) {
	d, err := ws.startDaemon(in.layout, len(in.stream)+1024)
	if err != nil {
		return wireFigures{}, err
	}
	defer d.stop()
	cl := d.dial(t)
	defer cl.CloseIdleConnections()
	ctx := context.Background()
	var live []rtether.ChannelID
	if len(in.start) > 0 {
		chs, err := cl.EstablishAll(ctx, in.start)
		if err != nil {
			return wireFigures{}, fmt.Errorf("wire probe: start batch: %w", err)
		}
		for _, ch := range chs {
			live = append(live, ch.ID)
		}
	}
	rtts := make([]int64, statsCalls)
	for i := range rtts {
		t0 := time.Now()
		if _, err := cl.Stats(ctx); err != nil {
			return wireFigures{}, fmt.Errorf("wire probe: stats: %w", err)
		}
		rtts[i] = time.Since(t0).Nanoseconds()
	}

	m := newMeasured()
	mt, err := d.startMeter(ctx, m)
	if err != nil {
		return wireFigures{}, err
	}
	seg := m.segment("probe")
	phaseStart := time.Now()
	for i, o := range in.stream {
		if o.Release {
			id := live[o.Pos]
			live[o.Pos] = live[len(live)-1]
			live = live[:len(live)-1]
			sp := rec.begin("client.Release", int64(i), -1)
			t0 := time.Now()
			err := cl.Release(ctx, id)
			seg.add(phaseStart, clsRelease, time.Since(t0), 1)
			rec.end(sp)
			if err != nil {
				return wireFigures{}, fmt.Errorf("wire probe: release: %w", err)
			}
			continue
		}
		var ch client.Channel
		var err error
		sp := rec.begin("client.Establish", int64(i), -1)
		t0 := time.Now()
		if len(o.Sinks) > 0 {
			ch, err = cl.EstablishMulticast(ctx, o.multicast())
		} else {
			ch, err = cl.Establish(ctx, o.Spec)
		}
		seg.add(phaseStart, clsEstablish, time.Since(t0), 1)
		rec.end(sp)
		switch {
		case err == nil:
			live = append(live, ch.ID)
		case !errors.Is(err, rtether.ErrInfeasible):
			return wireFigures{}, fmt.Errorf("wire probe: establish %v: %w", o.Spec, err)
		}
	}
	seg.wall = time.Since(phaseStart)
	if err := mt.stop(ctx, m, true); err != nil {
		return wireFigures{}, err
	}
	f := m.figures(t, phaseStart)
	f.statsRTTus = float64(percentile(sortedCopy(rtts), 50)) / 1e3
	return f, nil
}
