package server

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/rtether"
)

// admissionSeries maps each promoted admission series to its field of a.
func admissionSeries(a rtether.AdmissionStats) map[string]float64 {
	return map[string]float64{
		"rtether_admit_requests_total":                         float64(a.Requests),
		"rtether_links_checked_total":                          float64(a.LinksChecked),
		"rtether_verify_cache_hits_total":                      float64(a.VerifyCacheHits),
		"rtether_repartitions_total":                           float64(a.Repartitions),
		"rtether_sweep_seconds_total":                          float64(a.SweepNs) / 1e9,
		`rtether_failover_outcomes_total{outcome="rerouted"}`:  float64(a.Rerouted),
		`rtether_failover_outcomes_total{outcome="degraded"}`:  float64(a.Degraded),
		`rtether_failover_outcomes_total{outcome="preempted"}`: float64(a.Preempted),
		`rtether_failover_outcomes_total{outcome="lost"}`:      float64(a.Lost),
		"rtether_mean_link_utilization":                        a.MeanLinkUtilization,
		"rtether_loaded_links":                                 float64(a.LoadedLinks),
	}
}

// checkRender renders the exposition of adm and reports the first of
// the 11 admission series that does not show adm's field.
func checkRender(s *Server, adm rtether.AdmissionStats) error {
	m, err := obs.ParseText(bytes.NewReader(s.metrics.render(adm)))
	if err != nil {
		return err
	}
	for k, v := range admissionSeries(adm) {
		if got, ok := m[k]; !ok || got != v {
			return fmt.Errorf("%s = %v (present %v), want the snapshot's %v", k, got, ok, v)
		}
	}
	return nil
}

// TestScrapeReadsOneAdmissionSnapshot renders the exposition from
// AdmissionStats values whose every promoted field differs from the
// network's (an empty star): each of the 11 admission series must show
// the value's field, so all of them read the scrape's one snapshot and
// none asks the network again. Eight goroutines render at once, each
// its own snapshot, and no render may show another's.
func TestScrapeReadsOneAdmissionSnapshot(t *testing.T) {
	s := newStarServer(t, 2)
	snapshot := func(k int) rtether.AdmissionStats {
		b := 100 * (k + 1)
		return rtether.AdmissionStats{
			Requests: b + 1, LinksChecked: b + 2, VerifyCacheHits: b + 3, Repartitions: b + 4, SweepNs: int64(b+5) * 1e9,
			Rerouted: b + 6, Degraded: b + 7, Preempted: b + 8, Lost: b + 9,
			MeanLinkUtilization: float64(b) + 0.25, LoadedLinks: b + 11,
		}
	}
	if err := checkRender(s, snapshot(0)); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for k := 1; k <= 8; k++ {
		wg.Add(1)
		go func(adm rtether.AdmissionStats) {
			defer wg.Done()
			for range 20 {
				if err := checkRender(s, adm); err != nil {
					t.Error(err)
					return
				}
			}
		}(snapshot(k))
	}
	wg.Wait()
}
