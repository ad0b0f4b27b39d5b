package sweep

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

// loadTestGrid builds a grid from an inline document.
func loadTestGrid(t *testing.T, doc string) *Grid {
	t.Helper()
	g, err := LoadGrid(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// runTestGrid executes a grid against the testdata scenarios and
// returns the merged document's canonical JSON.
func runTestGrid(t *testing.T, g *Grid) []byte {
	t.Helper()
	rep, err := g.Run(context.Background(), Options{Dir: "testdata"})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSweepDeterministic pins the platform's core reproducibility
// contract: the same grid and seed produce a byte-identical merged
// document, run over run, even with cells executing in parallel.
func TestSweepDeterministic(t *testing.T) {
	const doc = `{
		"name": "det",
		"scenario": "star.json",
		"seed": 9,
		"parallel": 2,
		"axes": {
			"scheme": ["sdps", "adps"],
			"churnRate": [0.2, 0.4]
		}
	}`
	a := runTestGrid(t, loadTestGrid(t, doc))
	b := runTestGrid(t, loadTestGrid(t, doc))
	if !bytes.Equal(a, b) {
		t.Fatalf("same grid+seed produced different documents:\n--- a\n%s\n--- b\n%s", a, b)
	}
	for _, cell := range []string{
		"BenchmarkSweep/det/scheme=sdps/churnRate=0.2",
		"BenchmarkSweep/det/scheme=adps/churnRate=0.4",
	} {
		if !bytes.Contains(a, []byte(cell)) {
			t.Errorf("merged document missing cell %q:\n%s", cell, a)
		}
	}
}

// TestSweepSchemeAxisChangesOutcomes sanity-checks that the axis
// actually reaches the kernel: sdps and adps cells must report
// different admission outcomes under churn pressure.
func TestSweepSchemeAxisChangesOutcomes(t *testing.T) {
	const doc = `{
		"name": "scheme",
		"scenario": "star.json",
		"seed": 9,
		"axes": {"scheme": ["sdps", "adps"], "churnRate": [3.0]}
	}`
	rep, err := loadTestGrid(t, doc).Run(context.Background(), Options{Dir: "testdata"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 2 {
		t.Fatalf("got %d cells, want 2", len(rep.Benchmarks))
	}
	s, a := rep.Benchmarks[0].Metrics, rep.Benchmarks[1].Metrics
	if s["accepted"]+s["rejected"] == 0 || a["accepted"]+a["rejected"] == 0 {
		t.Fatalf("cells saw no admission decisions: sdps=%v adps=%v", s, a)
	}
	// SDPS's fixed splits force more per-link feasibility work than
	// ADPS's adaptive ones at the same load — identical counters would
	// mean the axis never reached the kernel.
	if s["accepted"] == a["accepted"] && s["rejected"] == a["rejected"] && s["links-checked"] == a["links-checked"] {
		t.Errorf("scheme axis had no effect: sdps=%v adps=%v", s, a)
	}
}

// TestSweepBatchAxis runs the replay executor both ways. Batching is a
// submission-path choice, not a policy one, so both cells must see the
// same workload and produce decisions.
func TestSweepBatchAxis(t *testing.T) {
	const doc = `{
		"name": "batch",
		"scenario": "star.json",
		"seed": 9,
		"axes": {"batch": ["sequential", "each"]}
	}`
	rep, err := loadTestGrid(t, doc).Run(context.Background(), Options{Dir: "testdata"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 2 {
		t.Fatalf("got %d cells, want 2", len(rep.Benchmarks))
	}
	seq, each := rep.Benchmarks[0], rep.Benchmarks[1]
	if seq.Runs != each.Runs {
		t.Errorf("batching changed the op count: sequential=%d each=%d", seq.Runs, each.Runs)
	}
	if seq.Metrics["accepted"] == 0 || each.Metrics["accepted"] == 0 {
		t.Errorf("no acceptances: sequential=%v each=%v", seq.Metrics, each.Metrics)
	}
}

// TestSweepSimulate runs a full-simulation cell and checks the
// delivery profile reaches the merged document.
func TestSweepSimulate(t *testing.T) {
	const doc = `{
		"name": "sim",
		"scenario": "star.json",
		"simulate": true,
		"seed": 9,
		"axes": {"failurePolicy": ["reject", "preempt"]}
	}`
	rep, err := loadTestGrid(t, doc).Run(context.Background(), Options{Dir: "testdata"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 2 {
		t.Fatalf("got %d cells, want 2", len(rep.Benchmarks))
	}
	for _, b := range rep.Benchmarks {
		if b.Metrics["rt-delivered"] <= 0 {
			t.Errorf("%s: no RT frames delivered: %v", b.Name, b.Metrics)
		}
		if _, ok := b.Metrics["rt-misses"]; !ok {
			t.Errorf("%s: miss profile missing: %v", b.Name, b.Metrics)
		}
	}
}

// TestSweepChurnRateAxisNeedsChurn: scaling churn on a scenario with no
// generators is a declared error naming the axis, not a silent no-op.
func TestSweepChurnRateAxisNeedsChurn(t *testing.T) {
	const doc = `{
		"name": "bad",
		"scenario": "nochurn.json",
		"axes": {"churnRate": [0.5]}
	}`
	_, err := loadTestGrid(t, doc).Run(context.Background(), Options{Dir: "testdata"})
	if err == nil {
		t.Fatal("churnRate axis accepted on a churn-free scenario")
	}
	if !strings.Contains(err.Error(), AxisChurnRate) || !strings.Contains(err.Error(), "no churn generators") {
		t.Errorf("error does not explain the axis problem: %v", err)
	}
}
