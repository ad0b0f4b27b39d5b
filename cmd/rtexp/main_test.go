package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// rtexp runs one command line with empty stdin.
func rtexp(args []string, stdout, stderr io.Writer) int {
	return run(context.Background(), args, strings.NewReader(""), stdout, stderr)
}

func TestRunList(t *testing.T) {
	var out, errOut strings.Builder
	if code := rtexp([]string{"-list"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	for _, want := range []string{"fig18.5", "dsweep", "multiswitch", "dpssearch"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("-list output missing %q", want)
		}
	}
}

func TestRunSingleExperiment(t *testing.T) {
	var out, errOut strings.Builder
	if code := rtexp([]string{"-exp", "fig18.5"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "Fig. 18.5") {
		t.Error("table title missing")
	}
	if strings.Contains(out.String(), "E8") {
		t.Error("unselected experiment ran")
	}
}

func TestRunCSV(t *testing.T) {
	var out, errOut strings.Builder
	if code := rtexp([]string{"-exp", "fig18.5", "-csv"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "requested,accepted(SDPS),accepted(ADPS)") {
		t.Errorf("CSV header missing:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "200,60,110") {
		t.Errorf("CSV data row missing:\n%s", out.String())
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var out, errOut strings.Builder
	if code := rtexp([]string{"-exp", "nope"}, &out, &errOut); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "unknown experiment") {
		t.Errorf("stderr = %q", errOut.String())
	}
}

func TestRunBadFlag(t *testing.T) {
	var out, errOut strings.Builder
	if code := rtexp([]string{"-bogus"}, &out, &errOut); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
}

// sweepFixture writes a small scenario plus a grid over it into a temp
// dir and returns the grid path.
func sweepFixture(t *testing.T, gridDoc string) string {
	t.Helper()
	dir := t.TempDir()
	scenario := `{
		"name": "cli star",
		"dps": "adps",
		"slots": 400,
		"seed": 4,
		"nodes": [1, 2, 3, 4, 5, 6],
		"churn": [{
			"name": "mix", "rate": 0.4, "holdMean": 60,
			"sources": [1, 2, 3], "destinations": [4, 5, 6],
			"c": 1, "p": 120, "d": 80, "maxConcurrent": 16
		}]
	}`
	if err := os.WriteFile(filepath.Join(dir, "star.json"), []byte(scenario), 0o644); err != nil {
		t.Fatal(err)
	}
	gridPath := filepath.Join(dir, "grid.json")
	if err := os.WriteFile(gridPath, []byte(gridDoc), 0o644); err != nil {
		t.Fatal(err)
	}
	return gridPath
}

// TestSweepCLIDeterministic drives the whole sweep pipeline twice and
// pins the platform contract at the CLI boundary: byte-identical JSON
// on stdout for the same grid and seed.
func TestSweepCLIDeterministic(t *testing.T) {
	gridPath := sweepFixture(t, `{
		"name": "cli",
		"scenario": "star.json",
		"seed": 11,
		"axes": {"scheme": ["sdps", "adps"]}
	}`)
	var a, b, errOut strings.Builder
	if code := rtexp([]string{"sweep", gridPath}, &a, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	if code := rtexp([]string{"sweep", gridPath}, &b, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	if a.String() != b.String() {
		t.Fatalf("same grid produced different documents:\n--- a\n%s\n--- b\n%s", a.String(), b.String())
	}
	var rep struct {
		Benchmarks []struct {
			Name string `json:"name"`
		} `json:"benchmarks"`
	}
	if err := json.Unmarshal([]byte(a.String()), &rep); err != nil {
		t.Fatalf("stdout is not JSON: %v\n%s", err, a.String())
	}
	if len(rep.Benchmarks) != 2 ||
		!strings.Contains(a.String(), "scheme=sdps") || !strings.Contains(a.String(), "scheme=adps") {
		t.Errorf("cells missing or misnamed: %+v", rep.Benchmarks)
	}
	// Progress narration goes to stderr, never into the artifact.
	if !strings.Contains(errOut.String(), "sweep: [") {
		t.Errorf("no per-cell progress on stderr:\n%s", errOut.String())
	}
}

// TestSweepCLIBadGrid: loader diagnostics surface through the CLI with
// a non-zero exit.
func TestSweepCLIBadGrid(t *testing.T) {
	gridPath := sweepFixture(t, `{"name": "bad", "scenario": "star.json", "axes": {"scheme": ["edf"]}}`)
	var out, errOut strings.Builder
	if code := rtexp([]string{"sweep", gridPath}, &out, &errOut); code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(errOut.String(), `axis "scheme"`) {
		t.Errorf("axis diagnostic lost: %s", errOut.String())
	}
}

// TestSweepCheckedInGrid runs the checked-in scheme × batch grid with
// -out: four cells, each with admission decisions, and nothing on stdout.
func TestSweepCheckedInGrid(t *testing.T) {
	outPath := filepath.Join(t.TempDir(), "sweep.json")
	var out, errOut strings.Builder
	if code := rtexp([]string{"sweep", "-out", outPath, "testdata/sweep_grid.json"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	if out.Len() != 0 {
		t.Errorf("-out run wrote to stdout:\n%s", out.String())
	}
	raw, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Benchmarks []struct {
			Name    string             `json:"name"`
			Metrics map[string]float64 `json:"metrics"`
		} `json:"benchmarks"`
	}
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("-out file is not JSON: %v", err)
	}
	if len(rep.Benchmarks) != 4 {
		t.Fatalf("got %d cells, want 4:\n%s", len(rep.Benchmarks), raw)
	}
	for _, b := range rep.Benchmarks {
		if b.Metrics["accepted"] == 0 {
			t.Errorf("%s: nothing accepted: %v", b.Name, b.Metrics)
		}
	}
}

// TestSubcommands pins the dispatcher: paper is the default, and an
// unknown subcommand is a usage error.
func TestSubcommands(t *testing.T) {
	var bare, paper, errOut strings.Builder
	if code := rtexp([]string{"-list"}, &bare, &errOut); code != 0 {
		t.Fatalf("bare -list: exit %d: %s", code, errOut.String())
	}
	if code := rtexp([]string{"paper", "-list"}, &paper, &errOut); code != 0 {
		t.Fatalf("paper -list: exit %d: %s", code, errOut.String())
	}
	if bare.String() != paper.String() {
		t.Errorf("bare rtexp and rtexp paper differ:\n--- bare\n%s\n--- paper\n%s", bare.String(), paper.String())
	}
	if code := rtexp([]string{"bogus"}, &paper, &errOut); code != 2 {
		t.Errorf("unknown subcommand: exit %d, want 2", code)
	}
	if code := rtexp([]string{"sweep"}, &paper, &errOut); code != 2 {
		t.Errorf("sweep without a grid: exit %d, want 2", code)
	}
}
