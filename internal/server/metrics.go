package server

import (
	"bytes"
	"net/http"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/rtether"
	"repro/rtether/wire"
)

// serverMetrics is the daemon's observability surface: one obs.Registry
// backing GET /metrics and one span ring backing GET /v1/spans. Event
// counters (admit/reject/release) are plain obs counters incremented
// where the event happens; everything the daemon already counts
// elsewhere — admission stats, coalescer atomics, watch-hub state — is
// promoted into the exposition through CounterFunc/GaugeFunc collectors
// that read the existing counters only at scrape time, so the admission
// hot path gains no new work.
type serverMetrics struct {
	reg   *obs.Registry
	spans *obs.SpanRing

	// adm is the AdmissionStats snapshot every admission series of the
	// running render reads, so a scrape's series describe one state.
	scrapeMu sync.Mutex
	adm      rtether.AdmissionStats

	admits      *obs.Counter
	rejects     *obs.Counter
	releases    *obs.Counter
	topicAdmits *obs.Counter
	heartbeats  *obs.Counter

	binWrites *obs.Counter

	flightMerged *obs.Histogram
	flightWait   *obs.Histogram
	flightAdmit  *obs.Histogram

	// lastSweepNs attributes verification-sweep time to flights by
	// differencing the kernel's cumulative sweep counter. Only onFlight
	// touches it, and the coalescer's mutex keeps flights one at a time
	// and orders each after the last, so it needs no lock of its own;
	// concurrent non-coalesced passes (establishAll, failover) make the
	// attribution approximate, never wrong in total.
	lastSweepNs int64
}

// spanRingDefault is the flight recorder's default capacity.
const spanRingDefault = 256

// newServerMetrics builds the registry and registers every series that
// is not per-endpoint (mountRoutes registers those). s.net, s.coal,
// s.hub and s.topics must already be set.
func newServerMetrics(s *Server, spanCap int) *serverMetrics {
	if spanCap <= 0 {
		spanCap = spanRingDefault
	}
	r := obs.NewRegistry()
	m := &serverMetrics{reg: r, spans: obs.NewSpanRing(spanCap)}

	m.admits = r.Counter("rtether_admit_total", "Channels admitted (establish, multicast, batch and topic re-admissions).")
	m.rejects = r.Counter("rtether_reject_total", "Establish requests rejected.")
	m.releases = r.Counter("rtether_release_total", "Channels released.")
	m.topicAdmits = r.Counter("rtether_topic_admissions_total", "Topic-tree (re-)admissions driven by pub/sub membership changes.")
	m.heartbeats = r.Counter("rtether_heartbeats_total", "Heartbeat events published on the watch feed.")

	// Admission-kernel counters, promoted from the render's snapshot.
	stat := func(f func(rtether.AdmissionStats) float64) func() float64 {
		return func() float64 { return f(m.adm) }
	}
	r.CounterFunc("rtether_admit_requests_total", "Channel requests decided by the admission kernel.",
		stat(func(a rtether.AdmissionStats) float64 { return float64(a.Requests) }))
	r.CounterFunc("rtether_links_checked_total", "Per-link feasibility verifications, skipped links included.",
		stat(func(a rtether.AdmissionStats) float64 { return float64(a.LinksChecked) }))
	r.CounterFunc("rtether_verify_cache_hits_total", "Per-link verifications answered with no test: a link the decision did not move needs no test.",
		stat(func(a rtether.AdmissionStats) float64 { return float64(a.VerifyCacheHits) }))
	r.CounterFunc("rtether_repartitions_total", "Deadline-repartition passes run by the kernel.",
		stat(func(a rtether.AdmissionStats) float64 { return float64(a.Repartitions) }))
	r.CounterFunc("rtether_sweep_seconds_total", "Wall-clock time spent in EDF verification sweeps.",
		stat(func(a rtether.AdmissionStats) float64 { return float64(a.SweepNs) / 1e9 }))
	r.CounterFunc("rtether_failover_outcomes_total", "Channels rerouted by failure recovery.",
		stat(func(a rtether.AdmissionStats) float64 { return float64(a.Rerouted) }),
		obs.Label{Key: "outcome", Value: "rerouted"})
	r.CounterFunc("rtether_failover_outcomes_total", "Channels degraded by failure recovery.",
		stat(func(a rtether.AdmissionStats) float64 { return float64(a.Degraded) }),
		obs.Label{Key: "outcome", Value: "degraded"})
	r.CounterFunc("rtether_failover_outcomes_total", "Channels preempted by failure recovery.",
		stat(func(a rtether.AdmissionStats) float64 { return float64(a.Preempted) }),
		obs.Label{Key: "outcome", Value: "preempted"})
	r.CounterFunc("rtether_failover_outcomes_total", "Channels lost to failure recovery.",
		stat(func(a rtether.AdmissionStats) float64 { return float64(a.Lost) }),
		obs.Label{Key: "outcome", Value: "lost"})
	r.GaugeFunc("rtether_mean_link_utilization", "Mean utilization across loaded links.",
		stat(func(a rtether.AdmissionStats) float64 { return a.MeanLinkUtilization }))
	r.GaugeFunc("rtether_loaded_links", "Links carrying at least one RT channel.",
		stat(func(a rtether.AdmissionStats) float64 { return float64(a.LoadedLinks) }))

	// Coalescer and watch-hub state, promoted from their own counters.
	r.CounterFunc("rtether_establishes_total", "Establish requests submitted to the coalescing front-end.",
		func() float64 { return float64(s.coal.establishes.Load()) })
	r.CounterFunc("rtether_flights_total", "Merged admission flights dispatched.",
		func() float64 { return float64(s.coal.flights.Load()) })
	r.GaugeFunc("rtether_flight_max_merged", "Largest number of requests merged into one flight.",
		func() float64 { return float64(s.coal.maxMerged.Load()) })
	r.GaugeFunc("rtether_channels", "Currently established channels.",
		func() float64 { return float64(len(s.net.Channels())) })
	r.GaugeFunc("rtether_topics", "Declared pub/sub topics.",
		func() float64 { return float64(s.topics.Len()) })
	r.GaugeFunc("rtether_watch_subscribers", "Connected /v1/watch streams.",
		func() float64 { return float64(s.hub.count()) })
	r.GaugeFunc("rtether_watch_seq", "High-water sequence number of the watch feed.",
		func() float64 { return float64(s.hub.lastSeq()) })
	r.CounterFunc("rtether_watch_evictions_total", "Watch streams evicted for falling behind.",
		func() float64 { return float64(s.hub.evictions.Load()) })

	// Flight-shape histograms, fed by the coalescer's flight records.
	m.flightMerged = r.Histogram("rtether_flight_merged", "Establish requests merged per flight.")
	m.flightWait = r.Histogram("rtether_flight_wait_ns", "Longest coalesce-queue wait per flight.")
	m.flightAdmit = r.Histogram("rtether_flight_admit_ns", "Merged kernel admission pass duration per flight.")

	return m
}

// onFlight records one coalesced flight into the span ring and the
// flight-shape histograms. Called once per flight, by whichever caller
// or goroutine flies it, before the flight's verdicts are posted.
func (s *Server) onFlight(fr flightRecord) {
	m := s.metrics
	sweep := s.net.SweepNs()
	verify := sweep - m.lastSweepNs
	m.lastSweepNs = sweep
	m.flightMerged.Observe(int64(fr.merged))
	m.flightWait.Observe(fr.waitNs)
	m.flightAdmit.Observe(fr.admitNs)
	m.spans.Record(obs.Span{
		Flight:    s.coal.flights.Load(),
		Start:     fr.start,
		Merged:    fr.merged,
		WaitNs:    fr.waitNs,
		AdmitNs:   fr.admitNs,
		VerifyNs:  verify,
		PublishNs: fr.publishNs,
		Accepted:  fr.accepted,
		Rejected:  fr.rejected,
	})
}

// mountRoutes registers every op and the two streams on the mux with
// their per-endpoint request counter and duration histogram, and gives
// each binary op its dispatch histogram. All counters are registered
// before all histograms so each family stays contiguous in the
// exposition (one HELP/TYPE header per family). For streaming endpoints
// (watch, subscribe) the recorded duration spans the whole stream
// lifetime.
func (s *Server) mountRoutes(ops []*binding) {
	reg := s.metrics.reg
	routes := append(ops[:len(ops):len(ops)],
		streamed(wire.WatchPath, s.handleWatch), streamed(wire.SubscribePath, s.handleSubscribe))
	for _, rt := range routes {
		rt.reqs = reg.Counter("rtether_requests_total", "HTTP requests served by endpoint.",
			obs.Label{Key: "endpoint", Value: rt.path})
	}
	for _, rt := range routes {
		rt.httpDur = reg.Histogram("rtether_request_duration_ns", "HTTP request duration by endpoint.",
			obs.Label{Key: "endpoint", Value: rt.path})
		s.mux.HandleFunc(rt.method+" "+rt.path, rt.http)
	}
	s.metrics.binWrites = reg.Counter("rtether_binary_writes_total",
		"write(2) calls carrying binary reply frames; each writes every reply queued by then.")
	s.frames = make(map[wire.MsgType]*binding)
	for _, op := range ops {
		if op.frame != nil {
			op.dur = reg.Histogram("rtether_binary_request_duration_ns",
				"Binary frame dispatch duration by message type.",
				obs.Label{Key: "msg", Value: op.name})
			s.frames[op.msg] = op
		}
	}
}

// handlePromMetrics serves the Prometheus text exposition
// (GET /metrics) of one AdmissionStats snapshot.
func (s *Server) handlePromMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write(s.metrics.render(s.net.AdmissionStats()))
}

// render renders the exposition with every admission series read from
// adm, one render at a time, into a buffer so a slow scraper holds none.
func (m *serverMetrics) render(adm rtether.AdmissionStats) []byte {
	m.scrapeMu.Lock()
	defer m.scrapeMu.Unlock()
	m.adm = adm
	var b bytes.Buffer
	_ = m.reg.WritePrometheus(&b)
	return b.Bytes()
}

// MetricsHandler exposes the Prometheus exposition handler for mounting
// on an additional listener (rtetherd -metrics-addr), so scrapers need
// no access to the admission API.
func (s *Server) MetricsHandler() http.HandlerFunc { return s.handlePromMetrics }

// heartbeatLoop publishes one heartbeat watch event per interval until
// the server closes: a liveness beacon carrying the feed's sequence
// high-water mark (the event's own seq) and the current channel count,
// so a quiet fabric still proves the stream is alive.
func (s *Server) heartbeatLoop(interval time.Duration) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.hbQuit:
			return
		case <-t.C:
			s.hub.publish(wire.WatchEvent{
				Type:     wire.EventHeartbeat,
				Channels: len(s.net.Channels()),
			})
			s.metrics.heartbeats.Inc()
		}
	}
}
