package main

import (
	"context"
	"io"
	"strings"
	"testing"
)

// sim runs `rtexp sim args`.
func sim(args []string, stdout, stderr io.Writer) int {
	return run(context.Background(), append([]string{"sim"}, args...), stdout, stderr)
}

// TestDefaultRunHoldsGuarantees simulates the one-uplink document: six
// channels admitted one event at a time, the seventh refused, and every
// admitted channel meets its deadline.
func TestDefaultRunHoldsGuarantees(t *testing.T) {
	var out, errOut strings.Builder
	if code := sim([]string{"-scenario", "testdata/uplink.json"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s\n%s", code, errOut.String(), out.String())
	}
	s := out.String()
	for _, want := range []string{
		"events: 7 played — 6 applied, 1 rejected (tolerated)",
		"REJECT rtether: chan{1→106 C=3 P=100 D=40} rejected at link(1,up)",
		" 0 deadline misses",
		"VERDICT: all guarantees held",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
}

// TestBackgroundTrafficRun: a document's background flow prints the
// non-RT summary line.
func TestBackgroundTrafficRun(t *testing.T) {
	var out, errOut strings.Builder
	if code := sim([]string{"-scenario", "testdata/cell.json"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "non-RT: sent") {
		t.Errorf("non-RT summary missing:\n%s", out.String())
	}
}

// TestUnknownDPSFlag: the scheme is the document's, checked when it
// loads and before anything runs.
func TestUnknownDPSFlag(t *testing.T) {
	path := writeDoc(t, uplinkDoc("wat", 1, ""))
	var out, errOut strings.Builder
	if code := sim([]string{"-scenario", path}, &out, &errOut); code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(errOut.String(), `unknown dps "wat"`) || out.Len() != 0 {
		t.Errorf("stdout %q, stderr %q", out.String(), errOut.String())
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
