package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// value is one reported metric.
type value struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// result is one workload's outcome at one seed.
type result struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Correct   bool     `json:"correct"`
	Attempted int64    `json:"attempted"`
	Failed    int64    `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
	// MeasuredS is the wall time of the untraced measured phase and
	// ElapsedS that of the whole workload (inputs, oracle, set-ups,
	// passes, checks) — how the frozen operation counts translate into
	// time on this machine.
	MeasuredS float64          `json:"measured_s"`
	ElapsedS  float64          `json:"elapsed_s"`
	EndToEnd  map[string]value `json:"end_to_end"`
	PerLayer  map[string]value `json:"per_layer,omitempty"`
	// Counts are the seed-determined exact counts: they must be
	// identical on every run of the same code and seed.
	Counts map[string]int64 `json:"counts"`
}

// Latency sample floors per time window (see segment.percentileOf).
const (
	minP50 = 200
	minP99 = 1000
)

// classStat is the mean over the segments holding the class of its
// windowed p-th percentile, in microseconds, with the total sample
// count. Averaging per-segment percentiles keeps a workload that runs
// on two layouts sensitive to each: a pooled percentile of a bimodal
// sample sits wherever the modes meet and tells on neither.
func (m *measured) classStat(class string, p float64, minPerWindow int) (float64, int) {
	var sum float64
	var segs, n int
	for _, s := range m.segments {
		v, c := s.percentileOf(class, p, minPerWindow)
		if c == 0 {
			continue
		}
		sum += v
		segs++
		n += c
	}
	if segs == 0 {
		return 0, 0
	}
	return sum / float64(segs) / 1e3, n
}

// opsPerSecond is the operations completed per wall second over the
// named segments (prefix match): total work over the time it would take
// at each segment's median window rate.
func (m *measured) opsPerSecond(prefixes ...string) (float64, int) {
	var work, seconds float64
	for _, s := range m.segments {
		for _, p := range prefixes {
			if strings.HasPrefix(s.name, p) {
				if r, w := s.rateOf(); r > 0 {
					work += w
					seconds += w / r
				}
				break
			}
		}
	}
	if seconds == 0 {
		return 0, 0
	}
	return work / seconds, int(work)
}

// endToEndOf folds a pass into the end-to-end metrics of its workload.
func endToEndOf(workload string, m *measured) map[string]value {
	out := map[string]value{}
	set := func(name string, v float64, samples int) {
		for _, d := range endToEnd {
			if d.Name == name && d.appliesTo(workload) {
				out[name] = value{Value: v, Unit: d.Unit, Samples: samples}
			}
		}
	}
	set("setup_s", medianFloat(m.setups), len(m.setups))
	v, n := m.classStat(clsEstablish, 50, minP50)
	set("establish_p50_us", v, n)
	v, n = m.classStat(clsRelease, 50, minP50)
	set("release_p50_us", v, n)
	v, n = m.classStat(clsRead, 50, minP50/4)
	set("read_p50_us", v, n)
	switch workload {
	case wlBulk:
		v, n = m.opsPerSecond("sequential/", "reads/")
	default:
		v, n = m.opsPerSecond("")
	}
	set("ops_per_s", v, n)
	set("peak_rss_mb", m.peakRSSMB, 1)

	// provision_channels_per_s: per layout, the median over its fresh
	// builds of channels admitted per second; then the mean of the layouts.
	var provSum float64
	var provSegs, provN int
	for _, s := range m.segments {
		if !strings.HasPrefix(s.name, "provision/") {
			continue
		}
		var rates []float64
		for _, sm := range s.samples {
			rates = append(rates, float64(sm.n)/(float64(sm.lat)/1e9))
		}
		provSum += medianFloat(rates)
		provSegs++
		provN += len(rates)
	}
	if provSegs > 0 {
		set("provision_channels_per_s", provSum/float64(provSegs), provN)
	}
	for _, s := range m.segments {
		switch s.name {
		case "failover":
			var ms []float64
			for _, sm := range s.samples {
				ms = append(ms, float64(sm.lat)/1e6)
			}
			set("failover_recover_ms", medianFloat(ms), len(ms))
		case "star":
			if lat, c := s.percentileOf(clsRunStar, 50, minP50/4); c > 0 {
				set("star_sim_slots_per_s", float64(s.samples[0].n)/(lat/1e9), c)
			}
		case "fabric":
			if lat, c := s.percentileOf(clsRunFabric, 50, minP50/4); c > 0 {
				set("fabric_sim_slots_per_s", float64(s.samples[0].n)/(lat/1e9), c)
			}
		}
	}
	if m.establishes > 0 {
		set("accepted_ratio", float64(m.accepted)/float64(m.establishes), int(m.establishes))
	}
	if m.delivered > 0 {
		set("deadline_miss_ratio", float64(m.misses)/float64(m.delivered), int(m.delivered))
	}
	set("failed_ops_ratio", float64(m.failed)/float64(m.attempted), int(m.attempted))
	return out
}

// driverLine is the one-line JSON object the benchmark driver reads:
// exactly these keys, each metric with exactly value and unit.
func (r *result) driverLine(traced bool) string {
	type dv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]dv{}
	if traced {
		for _, d := range perLayer {
			metrics[d.Name] = dv{r.PerLayer[d.Name].Value, d.Unit}
		}
	} else {
		for _, d := range endToEnd {
			if d.Driver {
				metrics[d.Name] = dv{r.EndToEnd[d.Name].Value, d.Unit}
			}
		}
	}
	b, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]dv `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	return string(b)
}

// printTable prints a workload's metrics by name and unit.
func (r *result) printTable(w io.Writer) {
	fmt.Fprintf(w, "\n== %s (seed %d): %d operations attempted, %d failed; measured phase %.1f s of %.1f s\n",
		r.Workload, r.Seed, r.Attempted, r.Failed, r.MeasuredS, r.ElapsedS)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "   FAILED: %s\n", f)
	}
	fmt.Fprintf(w, "  %-34s %16s %-8s %10s %s\n", "end-to-end metric", "value", "unit", "samples", "better (bound)")
	for _, d := range endToEnd {
		v, ok := r.EndToEnd[d.Name]
		if !ok {
			continue
		}
		better := d.Better
		if d.Bound > 0 {
			better = fmt.Sprintf("%s (%.0f %%)", d.Better, d.Bound*100)
		}
		fmt.Fprintf(w, "  %-34s %16.4f %-8s %10d %s\n", d.Name, v.Value, v.Unit, v.Samples, better)
	}
	if len(r.PerLayer) > 0 {
		fmt.Fprintf(w, "  %-34s %16s %-8s\n", "per-layer metric (traced pass)", "value", "unit")
		for _, d := range perLayer {
			if v, ok := r.PerLayer[d.Name]; ok {
				fmt.Fprintf(w, "  %-34s %16.4f %-8s\n", d.Name, v.Value, v.Unit)
			}
		}
	}
	names := make([]string, 0, len(r.Counts))
	for k := range r.Counts {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "  exact counts:")
	for _, k := range names {
		fmt.Fprintf(w, " %s=%d", k, r.Counts[k])
	}
	fmt.Fprintln(w)
}

// writeResults writes the machine-readable results file.
func writeResults(path string, sets [][]*result) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	err = enc.Encode(struct {
		Sets [][]*result `json:"sets"`
	}{sets})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// compareSets is the repeatability check of -repeat: for every workload
// and end-to-end metric it prints the value of each set, the relative
// difference between the first two and the bound, and reports whether
// every timing stayed inside its bound and every exact metric and count
// repeated exactly.
func compareSets(w io.Writer, sets [][]*result) bool {
	ok := true
	fmt.Fprintf(w, "\n== repeatability: %d sets of the same code and seed\n", len(sets))
	fmt.Fprintf(w, "  %-16s %-26s %14s %14s %9s %7s\n", "workload", "metric", "set 1", "set 2", "diff", "bound")
	for i, a := range sets[0] {
		b := sets[1][i]
		for _, d := range endToEnd {
			va, has := a.EndToEnd[d.Name]
			if !has {
				continue
			}
			vb := b.EndToEnd[d.Name]
			verdict := ""
			var diff float64
			if va.Value != 0 {
				diff = (vb.Value - va.Value) / va.Value
			}
			switch d.Better {
			case "exact", "zero":
				if va.Value != vb.Value || (d.Better == "zero" && va.Value != 0) {
					verdict, ok = "  DIFFERS", false
				}
			default:
				if math.Abs(diff) > d.Bound {
					verdict, ok = "  OUTSIDE BOUND", false
				}
			}
			bound := "exact"
			if d.Bound > 0 {
				bound = fmt.Sprintf("%.0f %%", d.Bound*100)
			}
			fmt.Fprintf(w, "  %-16s %-26s %14.4f %14.4f %8.2f%% %7s%s\n", a.Workload, d.Name, va.Value, vb.Value, diff*100, bound, verdict)
		}
		for k, ca := range a.Counts {
			if cb := b.Counts[k]; ca != cb {
				fmt.Fprintf(w, "  %-16s count %-20s %14d %14d  DIFFERS\n", a.Workload, k, ca, cb)
				ok = false
			}
		}
	}
	return ok
}
