package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/topo"
	"repro/rtether"
)

func TestPercentileIsExactNearestRank(t *testing.T) {
	sorted := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct {
		p    float64
		want int64
	}{{50, 50}, {99, 100}, {90, 90}, {91, 100}, {10, 10}, {1, 10}, {100, 100}} {
		if got := percentile(sorted, c.p); got != c.want {
			t.Errorf("percentile(p=%v) = %d, want %d", c.p, got, c.want)
		}
	}
	if got := percentile([]int64{7}, 99); got != 7 {
		t.Errorf("single sample: got %d", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("no samples: got %d", got)
	}
	// 1000 samples: p99 is the 990th smallest, leaving ten beyond it.
	big := make([]int64, 1000)
	for i := range big {
		big[i] = int64(i + 1)
	}
	if got := percentile(big, 99); got != 990 {
		t.Errorf("p99 of 1..1000 = %d, want 990", got)
	}
}

func TestWindowedPercentileDiscardsABurst(t *testing.T) {
	// Ten windows of 300 samples at latency 100; one window is hit by
	// interference and reads 900. The windowed median ignores it; a
	// percentile high enough to reach into the burst would not.
	seg := &segment{wall: 10 * time.Second}
	for w := 0; w < 10; w++ {
		lat := int64(100)
		if w == 3 {
			lat = 900
		}
		for i := 0; i < 300; i++ {
			end := (time.Duration(w)*time.Second + time.Duration(i)*time.Millisecond).Nanoseconds()
			seg.samples = append(seg.samples, sample{class: clsEstablish, lat: lat, end: end, n: 1})
		}
	}
	got, n := seg.percentileOf(clsEstablish, 95, 200)
	if got != 100 || n != 3000 {
		t.Errorf("windowed p95 = %v over %d samples, want 100 over 3000", got, n)
	}
	if rate, ops := seg.rateOf(); rate != 300 || ops != 3000 {
		t.Errorf("rateOf = %v ops/s over %v ops, want 300 over 3000", rate, ops)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []span{
		{Name: "op", Parent: -1, Start: 0, End: 100},
		{Name: "client.Establish", Parent: 0, Start: 10, End: 70},
		{Name: "client.Release", Parent: 0, Start: 75, End: 95},
	}
	got := map[string]layerTime{}
	for _, lt := range selfTimes(spans) {
		got[lt.Name] = lt
	}
	if lt := got["op"]; lt.TotalNs != 100 || lt.SelfNs != 20 {
		t.Errorf("op: total %d self %d, want 100 and 20", lt.TotalNs, lt.SelfNs)
	}
	if lt := got["client.Establish"]; lt.SelfNs != 60 {
		t.Errorf("child self %d, want 60", lt.SelfNs)
	}
}

// callerLinks is every directed link a caller ever names: its preload,
// its warm-up cycle and every establish of its stream, routed on the
// layout's own topology.
func callerLinks(t *testing.T, top *topo.Topology, c *callerInput) map[topo.Edge]bool {
	t.Helper()
	set := map[topo.Edge]bool{}
	add := func(src rtether.NodeID, sinks ...rtether.NodeID) {
		for _, sink := range sinks {
			route, err := top.Route(src, sink)
			if err != nil {
				t.Fatalf("caller %s: generated spec %d→%d has no route: %v", c.Name, src, sink, err)
			}
			for _, e := range route {
				set[e] = true
			}
		}
	}
	for _, s := range c.Preload {
		add(s.Src, s.Dst)
	}
	add(c.Warm.Src, c.Warm.Dst)
	for _, o := range c.Stream {
		switch o.Kind {
		case opEstablish:
			add(o.Spec.Src, o.Spec.Dst)
		case opMulticast:
			add(o.Spec.Src, o.Sinks...)
		}
	}
	return set
}

func TestCallerShardsAreLinkDisjoint(t *testing.T) {
	for _, w := range []struct {
		name    string
		l       layout
		callers []*callerInput
	}{
		{wlStarWire, starWireLayout(), genStarWire(3, 400)},
		{wlFabricChurn, fabricChurnLayout(), genFabricChurn(3, 400)},
	} {
		top := w.l.topology()
		owner := map[topo.Edge]string{}
		for _, c := range w.callers {
			links := callerLinks(t, top, c)
			if len(links) == 0 {
				t.Errorf("%s: caller %s names no link", w.name, c.Name)
			}
			for e := range links {
				if prev, taken := owner[e]; taken {
					t.Fatalf("%s: link %v named by callers %s and %s", w.name, e, prev, c.Name)
				}
				owner[e] = c.Name
			}
		}
	}
	// provision-bulk and dataplane-sim have one caller each: nothing to share.
}

// generated serializes a workload's generated inputs.
func generated(t *testing.T, name string, seed int64) []byte {
	t.Helper()
	sz := sizing{seconds: 0.5, smoke: true, setupReps: 1}
	var v any
	switch name {
	case wlStarWire:
		v = genStarWire(seed, sz.scale(starOpsPerCallerSec))
	case wlFabricChurn:
		v = genFabricChurn(seed, sz.scale(fabricOpsPerCallerSec))
	case wlBulk:
		v = genBulk(seed, sz.bulk())
	case wlDataplane:
		v = genSim(seed, sz.sim())
	}
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestSameSeedSameInputs(t *testing.T) {
	for _, d := range workloadDefs {
		a, b, c := generated(t, d.Name, 7), generated(t, d.Name, 7), generated(t, d.Name, 8)
		if len(a) < 1000 {
			t.Errorf("%s: generated inputs are only %d bytes", d.Name, len(a))
		}
		if string(a) != string(b) {
			t.Errorf("%s: the same seed generated different inputs", d.Name)
		}
		if string(a) == string(c) {
			t.Errorf("%s: seeds 7 and 8 generated identical inputs", d.Name)
		}
	}
}

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestCatalogueEqualsBenchmarkJSON(t *testing.T) {
	m := readManifest(t)
	if len(m.Workloads) != len(workloadDefs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(m.Workloads), len(workloadDefs))
	}
	for i, d := range workloadDefs {
		if m.Workloads[i].Name != d.Name || m.Workloads[i].Why != d.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, m.Workloads[i].Name, m.Workloads[i].Why, d.Name, d.Why)
		}
		if len(d.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, the limit is 200", d.Name, len(d.Why))
		}
	}
	var driver []metricDef
	for _, d := range endToEnd {
		if d.Driver {
			driver = append(driver, d)
		}
	}
	if len(m.EndToEnd) != len(driver) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the program reports %d on every workload", len(m.EndToEnd), len(driver))
	}
	for i, d := range driver {
		e := m.EndToEnd[i]
		if e.Name != d.Name || e.Unit != d.Unit || e.Better != d.Better || e.Bound != d.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the program %+v", i, e, d)
		}
	}
	if len(m.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the program %d", len(m.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		e := m.PerLayer[i]
		if e.Name != d.Name || e.Unit != d.Unit || e.Better != d.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the program %+v", i, e, d)
		}
	}
	if len(m.Paths) != 1 || m.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", m.Paths)
	}
}

// TestSmokeRunPrintsTheCatalogue runs every workload end to end at the
// smoke size — daemon child, oracle, traced pass, layer ledger — and
// holds the names it prints to the catalogue's.
func TestSmokeRunPrintsTheCatalogue(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns rtetherd and runs all four workloads")
	}
	ws, err := newWorkspace()
	if err != nil {
		t.Fatal(err)
	}
	defer ws.cleanup()
	defer killAllDaemons()
	sz := sizing{seconds: 0.5, smoke: true, setupReps: 1}
	for _, d := range workloadDefs {
		res, err := runWorkload(ws, d.Name, 1, sz, true)
		if err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		if !res.Correct {
			t.Errorf("%s: %d of %d operations failed: %v", d.Name, res.Failed, res.Attempted, res.Failures)
		}
		for _, traced := range []bool{false, true} {
			var line struct {
				Correct   *bool `json:"correct"`
				Attempted int64 `json:"attempted"`
				Failed    int64 `json:"failed"`
				Metrics   map[string]struct {
					Value *float64 `json:"value"`
					Unit  string   `json:"unit"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(res.driverLine(traced)), &line); err != nil {
				t.Fatal(err)
			}
			var want []string
			if traced {
				for _, m := range perLayer {
					want = append(want, m.Name)
				}
			} else {
				for _, m := range endToEnd {
					if m.Driver {
						want = append(want, m.Name)
					}
				}
			}
			var got []string
			for name, v := range line.Metrics {
				got = append(got, name)
				if v.Value == nil || v.Unit == "" {
					t.Errorf("%s: metric %s lacks a value or a unit", d.Name, name)
				}
				if !traced && v.Value != nil && *v.Value == 0 {
					t.Errorf("%s: end-to-end metric %s is 0", d.Name, name)
				}
			}
			sort.Strings(want)
			sort.Strings(got)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s (trace %v): printed metrics %v, catalogue %v", d.Name, traced, got, want)
			}
			if line.Correct == nil || line.Attempted < 1 {
				t.Errorf("%s: driver line lacks correct/attempted", d.Name)
			}
		}
		for _, m := range endToEnd {
			if _, printed := res.EndToEnd[m.Name]; printed != m.appliesTo(d.Name) {
				t.Errorf("%s: metric %s printed=%v, catalogue says applies=%v", d.Name, m.Name, printed, m.appliesTo(d.Name))
			}
		}
		if _, err := os.Stat(filepath.Join(ws.out, "trace-"+d.Name+".json")); err != nil {
			t.Errorf("%s: traced pass left no span file: %v", d.Name, err)
		}
	}
	liveDaemons.Lock()
	left := len(liveDaemons.m)
	liveDaemons.Unlock()
	if left != 0 {
		t.Errorf("%d rtetherd children still tracked after the runs", left)
	}
}
