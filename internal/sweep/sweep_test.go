package sweep

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
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

// TestSweepFailurePolicyAxis: a replay cell plays the scenario's failure
// events, so the policy axis reaches the recovery pass. When trunk 0-1
// of the ring fails, both of its channels detour over five hops: "ctl"
// no longer meets its deadline there, and "drive" overloads the trunk
// "bulk" holds. Reject loses both, degrade re-admits "ctl" at twice its
// deadline, and preempt evicts the lower-priority "bulk" for "drive" —
// three different decision sequences.
func TestSweepFailurePolicyAxis(t *testing.T) {
	const doc = `{
		"name": "ring",
		"scenario": "ring_failover.json",
		"axes": {"failurePolicy": ["reject", "degrade", "preempt"]}
	}`
	rep, err := loadTestGrid(t, doc).Run(context.Background(), Options{Dir: "testdata"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 3 {
		t.Fatalf("got %d cells, want 3", len(rep.Benchmarks))
	}
	seen := map[string]string{}
	for _, b := range rep.Benchmarks {
		key := fmt.Sprint(b.Metrics["links-checked"], b.Metrics["repartitions"])
		if other, dup := seen[key]; dup {
			t.Errorf("%s and %s report the same kernel counters: %v", other, b.Name, b.Metrics)
		}
		seen[key] = b.Name
	}
}

// TestSweepEachKeepsEstablishAllAtomic: batch=each merges single
// establishes only, so an establishAll stays one all-or-nothing
// decision. On a 3-node star, "a" fits node 1's uplink but "b" (C = P)
// cannot share it, so the optional batch of both is rejected whole
// under either batching: one operation, nothing admitted.
func TestSweepEachKeepsEstablishAllAtomic(t *testing.T) {
	dir := t.TempDir()
	const scen = `{
		"name": "pair", "slots": 100, "nodes": [1, 2, 3],
		"channels": [
			{"name": "a", "src": 1, "dst": 2, "c": 1, "p": 100, "d": 40},
			{"name": "b", "src": 1, "dst": 3, "c": 100, "p": 100, "d": 200}
		],
		"events": [{"at": 0, "kind": "establishAll", "channels": ["a", "b"], "optional": true}]
	}`
	if err := os.WriteFile(filepath.Join(dir, "pair.json"), []byte(scen), 0o644); err != nil {
		t.Fatal(err)
	}
	g := loadTestGrid(t, `{"name": "atomic", "scenario": "pair.json", "axes": {"batch": ["sequential", "each"]}}`)
	rep, err := g.Run(context.Background(), Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 2 {
		t.Fatalf("got %d cells, want 2", len(rep.Benchmarks))
	}
	for _, b := range rep.Benchmarks {
		if b.Runs != 1 || b.Metrics["accepted"] != 0 || b.Metrics["rejected"] != 1 {
			t.Errorf("%s: runs %d, metrics %v; want one rejected operation", b.Name, b.Runs, b.Metrics)
		}
	}
}

// TestSweepEachFailurePolicyAxis: a batch=each cell plays failure
// events too, so the policy axis reaches the recovery pass as it does
// for sequential cells (TestSweepFailurePolicyAxis): the four static
// channels and the trunk failure are five operations, and the three
// policies take three different decision sequences.
func TestSweepEachFailurePolicyAxis(t *testing.T) {
	const doc = `{
		"name": "ring",
		"scenario": "ring_failover.json",
		"axes": {"batch": ["each"], "failurePolicy": ["reject", "degrade", "preempt"]}
	}`
	rep, err := loadTestGrid(t, doc).Run(context.Background(), Options{Dir: "testdata"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 3 {
		t.Fatalf("got %d cells, want 3", len(rep.Benchmarks))
	}
	seen := map[string]string{}
	for _, b := range rep.Benchmarks {
		if b.Runs != 5 || b.Metrics["accepted"] != 4 {
			t.Errorf("%s: runs %d, metrics %v; want 5 operations, 4 admissions", b.Name, b.Runs, b.Metrics)
		}
		key := fmt.Sprint(b.Metrics["links-checked"], b.Metrics["repartitions"])
		if other, dup := seen[key]; dup {
			t.Errorf("%s and %s report the same kernel counters: %v", other, b.Name, b.Metrics)
		}
		seen[key] = b.Name
	}
}
