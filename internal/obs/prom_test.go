package obs

import (
	"strings"
	"testing"
)

// TestWritePrometheusGolden pins the full text exposition byte for
// byte: HELP/TYPE grouping, label rendering, compact cumulative
// histogram buckets and the always-present +Inf bucket.
func TestWritePrometheusGolden(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("rtether_admit_total", "Channels admitted.")
	r.Counter("rtether_http_requests_total", "HTTP requests served.",
		Label{Key: "endpoint", Value: "/v1/establish"})
	r.Counter("rtether_http_requests_total", "HTTP requests served.",
		Label{Key: "endpoint", Value: "/v1/release"})
	g := r.Gauge("rtether_watch_subscribers", "Open watch streams.")
	r.GaugeFunc("rtether_uptime_ratio", "Constant for the golden test.", func() float64 { return 0.5 })
	h := r.Histogram("rtether_flight_wait_ns", "Coalesce wait per flight.")

	c.Add(42)
	g.Set(3)
	h.Observe(1)    // bucket le="1"
	h.Observe(3)    // bucket le="4"
	h.Observe(1000) // bucket le="1024"

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	want := strings.Join([]string{
		`# HELP rtether_admit_total Channels admitted.`,
		`# TYPE rtether_admit_total counter`,
		`rtether_admit_total 42`,
		`# HELP rtether_http_requests_total HTTP requests served.`,
		`# TYPE rtether_http_requests_total counter`,
		`rtether_http_requests_total{endpoint="/v1/establish"} 0`,
		`rtether_http_requests_total{endpoint="/v1/release"} 0`,
		`# HELP rtether_watch_subscribers Open watch streams.`,
		`# TYPE rtether_watch_subscribers gauge`,
		`rtether_watch_subscribers 3`,
		`# HELP rtether_uptime_ratio Constant for the golden test.`,
		`# TYPE rtether_uptime_ratio gauge`,
		`rtether_uptime_ratio 0.5`,
		`# HELP rtether_flight_wait_ns Coalesce wait per flight.`,
		`# TYPE rtether_flight_wait_ns histogram`,
		`rtether_flight_wait_ns_bucket{le="1"} 1`,
		`rtether_flight_wait_ns_bucket{le="4"} 2`,
		`rtether_flight_wait_ns_bucket{le="1024"} 3`,
		`rtether_flight_wait_ns_bucket{le="+Inf"} 3`,
		`rtether_flight_wait_ns_sum 1004`,
		`rtether_flight_wait_ns_count 3`,
		``,
	}, "\n")
	if got := sb.String(); got != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestLabelEscaping checks Prometheus label-value escaping.
func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("esc_total", "escaping", Label{Key: "path", Value: "a\"b\\c\nd"})
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	if !strings.Contains(sb.String(), `esc_total{path="a\"b\\c\nd"} 0`) {
		t.Fatalf("escaped label missing from:\n%s", sb.String())
	}
}

// TestParseTextRoundTrip checks that ParseText recovers what
// WritePrometheus rendered — the contract client.MetricsProm relies
// on.
func TestParseTextRoundTrip(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("rt_ops_total", "ops")
	lc := r.Counter("rt_req_total", "reqs", Label{Key: "endpoint", Value: "/v1/establish"})
	h := r.Histogram("rt_lat_ns", "latency")
	c.Add(7)
	lc.Add(2)
	h.Observe(100)
	h.Observe(200)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	m, err := ParseText(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("ParseText: %v", err)
	}
	checks := map[string]float64{
		"rt_ops_total":                           7,
		`rt_req_total{endpoint="/v1/establish"}`: 2,
		"rt_lat_ns_count":                        2,
		"rt_lat_ns_sum":                          300,
	}
	for k, want := range checks {
		if got, ok := m[k]; !ok || got != want {
			t.Errorf("parsed[%q] = %v (present=%v), want %v", k, got, ok, want)
		}
	}
}

// TestParseTextSkipsGarbage checks that malformed lines are ignored
// rather than fatal.
func TestParseTextSkipsGarbage(t *testing.T) {
	in := "# comment\n\nbroken-line\nname notanumber\ngood 4\n"
	m, err := ParseText(strings.NewReader(in))
	if err != nil {
		t.Fatalf("ParseText: %v", err)
	}
	if len(m) != 1 || m["good"] != 4 {
		t.Fatalf("parsed = %v, want only good=4", m)
	}
}
