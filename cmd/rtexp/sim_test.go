package main

import (
	"context"
	"io"
	"strings"
	"testing"
)

// sim runs `rtexp sim args`.
func sim(args []string, stdout, stderr io.Writer) int {
	return run(context.Background(), append([]string{"sim"}, args...), strings.NewReader(""), stdout, stderr)
}

func TestDefaultRunHoldsGuarantees(t *testing.T) {
	var out, errOut strings.Builder
	code := sim([]string{"-masters", "3", "-slaves", "9", "-requests", "30", "-slots", "1500"},
		&out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s\n%s", code, errOut.String(), out.String())
	}
	s := out.String()
	if !strings.Contains(s, "VERDICT: all guarantees held") {
		t.Errorf("verdict missing:\n%s", s)
	}
	if !strings.Contains(s, "0 deadline misses") {
		t.Errorf("miss line missing:\n%s", s)
	}
	if !strings.Contains(s, "per-channel summary") {
		t.Errorf("table missing:\n%s", s)
	}
}

func TestBackgroundTrafficRun(t *testing.T) {
	var out, errOut strings.Builder
	code := sim([]string{"-masters", "2", "-slaves", "4", "-requests", "8",
		"-slots", "800", "-bg-rate", "0.1"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "non-RT: sent") {
		t.Errorf("non-RT summary missing:\n%s", out.String())
	}
}

func TestTraceFlag(t *testing.T) {
	var out, errOut strings.Builder
	code := sim([]string{"-masters", "1", "-slaves", "2", "-requests", "2",
		"-slots", "300", "-trace", "5"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "trace (last 5 of") {
		t.Errorf("trace output missing:\n%s", out.String())
	}
}

func TestUnknownDPSFlag(t *testing.T) {
	var out, errOut strings.Builder
	if code := sim([]string{"-dps", "wat"}, &out, &errOut); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
}

func TestRandomOffsetsAndSDPS(t *testing.T) {
	var out, errOut strings.Builder
	code := sim([]string{"-dps", "sdps", "-masters", "2", "-slaves", "6",
		"-requests", "20", "-slots", "1000", "-max-offset", "50", "-seed", "7"},
		&out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "SDPS") {
		t.Error("scheme name missing")
	}
}

func TestScenarioFile(t *testing.T) {
	var out, errOut strings.Builder
	code := sim([]string{"-scenario", "testdata/cell.json"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	s := out.String()
	if !strings.Contains(s, `scenario "assembly cell"`) ||
		!strings.Contains(s, "4 channels accepted") ||
		!strings.Contains(s, "VERDICT: all guarantees held") {
		t.Errorf("scenario output:\n%s", s)
	}
}

func TestScenarioFileMissing(t *testing.T) {
	var out, errOut strings.Builder
	if code := sim([]string{"-scenario", "testdata/nope.json"}, &out, &errOut); code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
}

func TestDynamicScenario(t *testing.T) {
	var out, errOut strings.Builder
	code := sim([]string{"-scenario", "testdata/dynamic.json", "-events", "0"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s\n%s", code, errOut.String(), out.String())
	}
	s := out.String()
	for _, want := range []string{
		"topology: 3 switches, 2 trunks, 6 nodes",
		"events:",
		"establish     video            ACCEPT",
		"establishAll  telemetry-a,telemetry-b ACCEPT",
		"reconfigure   ctrl             ACCEPT",
		"release       video            OK",
		"establish     flows#0",
		"VERDICT: all guarantees held",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
}

// TestDynamicScenarioDeterministic is the acceptance bar for the
// scenario subsystem: the same document (same seed) must produce a
// byte-identical report, churn stream included.
func TestDynamicScenarioDeterministic(t *testing.T) {
	render := func() string {
		var out, errOut strings.Builder
		if code := sim([]string{"-scenario", "testdata/dynamic.json", "-events", "0"}, &out, &errOut); code != 0 {
			t.Fatalf("exit %d: %s", code, errOut.String())
		}
		return out.String()
	}
	if a, b := render(), render(); a != b {
		t.Errorf("scenario reports diverged:\n--- first\n%s\n--- second\n%s", a, b)
	}
}

func TestScenarioSnapshotFlag(t *testing.T) {
	var out, errOut strings.Builder
	code := sim([]string{"-scenario", "testdata/cell.json", "-snapshot", "-"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), `"up":`) {
		t.Errorf("snapshot JSON missing from output:\n%s", out.String())
	}
}

func TestScenarioSnapshotRejectedOnFabric(t *testing.T) {
	var out, errOut strings.Builder
	code := sim([]string{"-scenario", "testdata/dynamic.json", "-snapshot", "-"}, &out, &errOut)
	if code != 2 {
		t.Fatalf("exit %d, want 2 (up-front rejection)", code)
	}
	if !strings.Contains(errOut.String(), "star scenario") {
		t.Errorf("missing star-only diagnostic: %s", errOut.String())
	}
	// The simulation must not have run.
	if strings.Contains(out.String(), "VERDICT") {
		t.Errorf("simulation ran despite the rejected flag combination:\n%s", out.String())
	}
}

func TestScenarioEventCap(t *testing.T) {
	var out, errOut strings.Builder
	code := sim([]string{"-scenario", "testdata/dynamic.json", "-events", "3"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "more events") {
		t.Errorf("event cap tail missing:\n%s", out.String())
	}
}
