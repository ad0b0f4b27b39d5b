package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// admit runs `rtexp admit args`.
func admit(args []string, stdout, stderr io.Writer) int {
	return run(context.Background(), append([]string{"admit"}, args...), stdout, stderr)
}

// writeDoc writes a scenario document into a temp dir and returns its
// path.
func writeDoc(t *testing.T, doc string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "scenario.json")
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// uplinkDoc is n channels {C=3, P=100, d=40} from node 1 to nodes 100,
// 101, … under dps, requested by the events (a JSON array body) — all of
// them on node 1's uplink.
func uplinkDoc(dps string, n int, events string) string {
	var nodes, chs []string
	for i := 0; i < n; i++ {
		nodes = append(nodes, fmt.Sprint(100+i))
		chs = append(chs, fmt.Sprintf(`{"name": "c%d", "src": 1, "dst": %d, "c": 3, "p": 100, "d": 40}`, i, 100+i))
	}
	return fmt.Sprintf(`{"name": "uplink", "dps": %q, "slots": 500, "nodes": [1, %s], "channels": [%s], "events": [%s]}`,
		dps, strings.Join(nodes, ", "), strings.Join(chs, ", "), events)
}

// TestAcceptAndReject: seven channels on one uplink under SDPS, one
// establish event each — six fit, and the seventh's REJECT line names
// the link, the direction and the reason.
func TestAcceptAndReject(t *testing.T) {
	var out, errOut strings.Builder
	if code := admit([]string{"-scenario", "testdata/uplink.json"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	s := out.String()
	if got := strings.Count(s, "ACCEPT"); got != 6 {
		t.Errorf("ACCEPT lines = %d, want 6\n%s", got, s)
	}
	if got := strings.Count(s, "REJECT"); got != 1 {
		t.Errorf("REJECT lines = %d, want 1", got)
	}
	if !strings.Contains(s, "c6               REJECT") ||
		!strings.Contains(s, "rejected at link(1,up) (hop 0, up): infeasible(demand)") {
		t.Errorf("rejection diagnostics missing:\n%s", s)
	}
	if !strings.Contains(s, "6 accepted") || !strings.Contains(s, "1 rejected") {
		t.Errorf("summary missing:\n%s", s)
	}
	if !strings.Contains(s, "ACCEPT RT#1[20+20]") {
		t.Errorf("SDPS partition not reported:\n%s", s)
	}
}

func TestQuietMode(t *testing.T) {
	var out, errOut strings.Builder
	if code := admit([]string{"-scenario", "testdata/uplink.json", "-q"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	if strings.Contains(out.String(), "ACCEPT") {
		t.Error("-q printed per-event lines")
	}
	if !strings.Contains(out.String(), "summary") {
		t.Error("-q suppressed the summary")
	}
}

// TestUnknownDPS: the document's scheme name is checked when it loads,
// and the error names the file.
func TestUnknownDPS(t *testing.T) {
	path := writeDoc(t, uplinkDoc("xyz", 1, ""))
	var out, errOut strings.Builder
	if code := admit([]string{"-scenario", path}, &out, &errOut); code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(errOut.String(), path) || !strings.Contains(errOut.String(), `unknown dps "xyz"`) {
		t.Errorf("stderr = %q", errOut.String())
	}
}

// TestADPSPartitionReported: five channels from one master under ADPS.
// Each ACCEPT line carries the budgets committed at its admission; the
// uplink's share grows as it fills, settling at up=33/down=7.
func TestADPSPartitionReported(t *testing.T) {
	path := writeDoc(t, uplinkDoc("adps", 5, `
		{"at": 0, "kind": "establish", "channel": "c0"},
		{"at": 0, "kind": "establish", "channel": "c1"},
		{"at": 0, "kind": "establish", "channel": "c2"},
		{"at": 0, "kind": "establish", "channel": "c3"},
		{"at": 0, "kind": "establish", "channel": "c4"}`))
	var out, errOut strings.Builder
	if code := admit([]string{"-scenario", path}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	for _, want := range []string{"ACCEPT RT#1[20+20]", "ACCEPT RT#2[26+14]", "ACCEPT RT#5[33+7]"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

func TestDumpSnapshot(t *testing.T) {
	var out, errOut strings.Builder
	if code := admit([]string{"-scenario", "testdata/uplink.json", "-q", "-dump"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	s := out.String()
	for _, want := range []string{`"id": 1`, `"id": 6`, `"up": 20`, `"down": 20`, `"dst": 105`} {
		if !strings.Contains(s, want) {
			t.Errorf("snapshot missing %q:\n%s", want, s)
		}
	}
	if strings.Contains(s, `"dst": 106`) || strings.Contains(s, "summary") {
		t.Errorf("snapshot holds the rejected channel or a summary:\n%s", s)
	}
}

// TestBatchAcceptsAll: an establishAll event is one decision that
// admits every member.
func TestBatchAcceptsAll(t *testing.T) {
	path := writeDoc(t, uplinkDoc("adps", 3, `{"at": 0, "kind": "establishAll", "channels": ["c0", "c1", "c2"]}`))
	var out, errOut strings.Builder
	if code := admit([]string{"-scenario", path}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	s := out.String()
	if !strings.Contains(s, "establishAll  c0,c1,c2         ACCEPT RT#1[") || !strings.Contains(s, " RT#3[") {
		t.Errorf("batch acceptance not reported:\n%s", s)
	}
	if !strings.Contains(s, "3 requests, 3 accepted") {
		t.Errorf("summary wrong:\n%s", s)
	}
}

// TestBatchAllOrNothing: seven channels on one uplink under SDPS —
// one by one six fit, but as one establishAll the whole set is refused,
// and the REJECT line names the spec that did not fit.
func TestBatchAllOrNothing(t *testing.T) {
	path := writeDoc(t, uplinkDoc("sdps", 7,
		`{"at": 0, "kind": "establishAll", "channels": ["c0", "c1", "c2", "c3", "c4", "c5", "c6"], "optional": true}`))
	var out, errOut strings.Builder
	if code := admit([]string{"-scenario", path}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	s := out.String()
	if !strings.Contains(s, "REJECT rtether: chan{1→100 C=3 P=100 D=40} rejected at link(1,up)") {
		t.Errorf("batch rejection not reported:\n%s", s)
	}
	if strings.Contains(s, "ACCEPT") {
		t.Errorf("all-or-nothing batch printed ACCEPT lines:\n%s", s)
	}
	if !strings.Contains(s, "7 requests, 0 accepted") {
		t.Errorf("summary wrong:\n%s", s)
	}
}

// TestInvalidSpecRejectedWithReason: a channel below the
// store-and-forward bound (D < 2C) never reaches admission — the
// document does not load, and the error says why.
func TestInvalidSpecRejectedWithReason(t *testing.T) {
	path := writeDoc(t, `{"name": "bad", "slots": 500, "nodes": [1, 2],
		"channels": [{"src": 1, "dst": 2, "c": 3, "p": 100, "d": 5}]}`)
	var out, errOut strings.Builder
	if code := admit([]string{"-scenario", path}, &out, &errOut); code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(errOut.String(), "channel 0") || !strings.Contains(errOut.String(), "store-and-forward") {
		t.Errorf("rejection reason missing: %s", errOut.String())
	}
}

func TestScenarioReplay(t *testing.T) {
	var out, errOut strings.Builder
	code := admit([]string{"-scenario", "testdata/dynamic.json"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s\n%s", code, errOut.String(), out.String())
	}
	s := out.String()
	for _, want := range []string{
		"static load: 2 accepted, 0 rejected",
		"establish     video            ACCEPT",
		"reconfigure   ctrl             ACCEPT",
		`summary (scenario "two-cell line with churn")`,
		"mean link utilization",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
	// Admission-only replay never simulates traffic: no VERDICT line.
	if strings.Contains(s, "VERDICT") {
		t.Errorf("replay printed a simulation verdict:\n%s", s)
	}
}

func TestScenarioReplayQuiet(t *testing.T) {
	var out, errOut strings.Builder
	code := admit([]string{"-scenario", "testdata/dynamic.json", "-q"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	if strings.Contains(out.String(), "slot ") {
		t.Errorf("-q still printed per-event lines:\n%s", out.String())
	}
}

func TestScenarioReplayMissingFile(t *testing.T) {
	var out, errOut strings.Builder
	if code := admit([]string{"-scenario", "nope.json"}, &out, &errOut); code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
}

func TestScenarioReplayDumpRejectedOnFabric(t *testing.T) {
	var out, errOut strings.Builder
	code := admit([]string{"-scenario", "testdata/dynamic.json", "-dump"}, &out, &errOut)
	if code != 2 {
		t.Fatalf("exit %d, want 2 (up-front rejection)", code)
	}
	if !strings.Contains(errOut.String(), "star scenario") {
		t.Errorf("missing star-only diagnostic: %s", errOut.String())
	}
}
