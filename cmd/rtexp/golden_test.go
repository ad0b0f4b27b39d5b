package main

import (
	"os"
	"strings"
	"testing"
)

// TestGoldenOutputs pins the deterministic outputs of the scenario
// executor byte for byte: the sweep document of the checked-in grid,
// the admission-only replay and the full simulation of checked-in
// scenarios. A changed line is a change in what the executor decides;
// regenerate a golden file only on purpose.
func TestGoldenOutputs(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"sweep_grid.txt", []string{"sweep", "testdata/sweep_grid.json"}},
		{"admit_dynamic.txt", []string{"admit", "-scenario", "testdata/dynamic.json"}},
		{"admit_ring_failover.txt", []string{"admit", "-scenario", "../../internal/sweep/testdata/ring_failover.json"}},
		{"sim_cell.txt", []string{"sim", "-scenario", "testdata/cell.json"}},
		{"sim_dynamic.txt", []string{"sim", "-scenario", "testdata/dynamic.json", "-events", "0"}},
	} {
		t.Run(strings.TrimSuffix(tc.golden, ".txt"), func(t *testing.T) {
			want, err := os.ReadFile("testdata/golden/" + tc.golden)
			if err != nil {
				t.Fatal(err)
			}
			var stdout, stderr strings.Builder
			if code := rtexp(tc.args, &stdout, &stderr); code != 0 {
				t.Fatalf("rtexp %s: exit %d\nstderr: %s", strings.Join(tc.args, " "), code, stderr.String())
			}
			if got := stdout.String(); got != string(want) {
				t.Errorf("rtexp %s: output differs from testdata/golden/%s\n--- got\n%s\n--- want\n%s",
					strings.Join(tc.args, " "), tc.golden, got, want)
			}
		})
	}
}
