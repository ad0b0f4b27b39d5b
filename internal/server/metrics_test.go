package server_test

import (
	"context"
	"testing"
	"time"

	"repro/internal/server"
	"repro/rtether"
	"repro/rtether/wire"
)

// TestMetricsExposition drives one admit, one reject and one release
// through the daemon and checks that GET /metrics exposes the event
// counters, the per-endpoint request series and the promoted
// admission-kernel counters — the same series the CI smoke job greps
// for under load.
func TestMetricsExposition(t *testing.T) {
	cl, _ := newTestServer(t, starNet(4))
	ctx := context.Background()

	ch, err := cl.Establish(ctx, rtether.ChannelSpec{Src: 1, Dst: 2, C: 1, P: 100, D: 40})
	if err != nil {
		t.Fatalf("establish: %v", err)
	}
	// An undeliverable deadline rejects without touching feasibility.
	if _, err := cl.Establish(ctx, rtether.ChannelSpec{Src: 1, Dst: 2, C: 30, P: 100, D: 4}); err == nil {
		t.Fatal("infeasible establish accepted")
	}
	if err := cl.Release(ctx, ch.ID); err != nil {
		t.Fatalf("release: %v", err)
	}

	m, err := cl.MetricsProm(ctx)
	if err != nil {
		t.Fatalf("MetricsProm: %v", err)
	}
	atLeast := map[string]float64{
		"rtether_admit_total":                                         1,
		"rtether_reject_total":                                        1,
		"rtether_release_total":                                       1,
		"rtether_admit_requests_total":                                2,
		"rtether_links_checked_total":                                 1,
		"rtether_flights_total":                                       1,
		"rtether_establishes_total":                                   2,
		"rtether_flight_merged_count":                                 1,
		`rtether_requests_total{endpoint="/v1/establish"}`:            2,
		`rtether_request_duration_ns_count{endpoint="/v1/establish"}`: 2,
		`rtether_requests_total{endpoint="/v1/release"}`:              1,
	}
	for k, want := range atLeast {
		got, ok := m[k]
		if !ok {
			t.Errorf("series %q missing from exposition", k)
			continue
		}
		if got < want {
			t.Errorf("%s = %v, want >= %v", k, got, want)
		}
	}
	// The verdict cache and sweep-time series must be present even when
	// zero — their absence means the promotion broke.
	for _, k := range []string{"rtether_verify_cache_hits_total", "rtether_sweep_seconds_total", "rtether_repartitions_total"} {
		if _, ok := m[k]; !ok {
			t.Errorf("series %q missing from exposition", k)
		}
	}
	if got := m["rtether_channels"]; got != 0 {
		t.Errorf("rtether_channels = %v after release, want 0", got)
	}
}

// TestMetricsExpositionBinary establishes over the binary transport:
// those calls bypass HTTP, so the per-message dispatch histogram is the
// series that must count them.
func TestMetricsExpositionBinary(t *testing.T) {
	cl, _ := newBinaryTestServer(t, starNet(4))
	ctx := context.Background()
	for dst := rtether.NodeID(2); dst <= 3; dst++ {
		if _, err := cl.Establish(ctx, rtether.ChannelSpec{Src: 1, Dst: dst, C: 1, P: 100, D: 40}); err != nil {
			t.Fatalf("establish: %v", err)
		}
	}
	m, err := cl.MetricsProm(ctx)
	if err != nil {
		t.Fatalf("MetricsProm: %v", err)
	}
	for k, want := range map[string]float64{
		`rtether_binary_request_duration_ns_count{msg="establish"}`: 2,
		"rtether_admit_total": 2,
	} {
		if got := m[k]; got < want {
			t.Errorf("%s = %v, want >= %v", k, got, want)
		}
	}
	if got := m[`rtether_request_duration_ns_count{endpoint="/v1/establish"}`]; got != 0 {
		t.Errorf("binary establishes counted as HTTP requests: %v", got)
	}
}

// TestSpansFlightRecorder checks that every coalesced flight lands in
// the /v1/spans ring with its verdict split and timing fields.
func TestSpansFlightRecorder(t *testing.T) {
	cl, _ := newTestServer(t, starNet(4))
	ctx := context.Background()
	if _, err := cl.Establish(ctx, rtether.ChannelSpec{Src: 1, Dst: 2, C: 1, P: 100, D: 40}); err != nil {
		t.Fatalf("establish: %v", err)
	}
	rep, err := cl.Spans(ctx)
	if err != nil {
		t.Fatalf("Spans: %v", err)
	}
	if len(rep.Spans) < 1 {
		t.Fatalf("spans = %d, want >= 1", len(rep.Spans))
	}
	sp := rep.Spans[len(rep.Spans)-1]
	if sp.Flight < 1 || sp.Merged < 1 || sp.Accepted < 1 {
		t.Fatalf("span = %+v, want flight/merged/accepted >= 1", sp)
	}
	if sp.AdmitNs <= 0 || sp.StartUnixNano <= 0 {
		t.Fatalf("span = %+v, want positive admitNs and startUnixNano", sp)
	}
}

// TestSpansHoldEachFlightBeforeItsVerdict reads the flight recorder
// right after each of a run of sequential verdicts, accepted or
// rejected, and finds that verdict's flight there every time: the
// coalescer records a flight before it posts any of its verdicts.
func TestSpansHoldEachFlightBeforeItsVerdict(t *testing.T) {
	cl, _ := newTestServer(t, starNet(4))
	ctx := context.Background()
	for flight := int64(1); flight <= 50; flight++ {
		_, _ = cl.Establish(ctx, rtether.ChannelSpec{Src: 1, Dst: 2, C: 1, P: 100, D: 40})
		rep, err := cl.Spans(ctx)
		if err != nil {
			t.Fatalf("Spans: %v", err)
		}
		newest := int64(0)
		if n := len(rep.Spans); n > 0 {
			newest = rep.Spans[n-1].Flight
		}
		if newest != flight {
			t.Fatalf("after verdict %d the newest span is flight %d, want %d", flight, newest, flight)
		}
	}
}

// TestHeartbeat checks the periodic watch-feed heartbeat: it must
// arrive without any admission traffic, carry the feed's sequence
// number and the current channel count, and be typed EventHeartbeat.
func TestHeartbeat(t *testing.T) {
	cl, _ := newTestServer(t, starNet(4), func(c *server.Config) {
		c.HeartbeatInterval = 5 * time.Millisecond
	})
	ctx := context.Background()
	if _, err := cl.Establish(ctx, rtether.ChannelSpec{Src: 1, Dst: 2, C: 1, P: 100, D: 40}); err != nil {
		t.Fatalf("establish: %v", err)
	}
	wctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	w, err := cl.Watch(wctx)
	if err != nil {
		t.Fatalf("watch: %v", err)
	}
	defer w.Close()
	for {
		ev, err := w.Next()
		if err != nil {
			t.Fatalf("no heartbeat before timeout: %v", err)
		}
		if ev.Type != wire.EventHeartbeat {
			continue
		}
		if ev.Seq == 0 {
			t.Fatalf("heartbeat seq = 0, want the feed high-water mark")
		}
		if ev.Channels != 1 {
			t.Fatalf("heartbeat channels = %d, want 1", ev.Channels)
		}
		return
	}
}
