package main

import (
	"context"
	"io"
	"strings"
	"testing"
)

// admit runs `rtexp admit args` over stdin.
func admit(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	return run(context.Background(), append([]string{"admit"}, args...), stdin, stdout, stderr)
}

func TestAcceptAndReject(t *testing.T) {
	// Seven channels on one uplink under SDPS: six accepted.
	var in strings.Builder
	for i := 0; i < 7; i++ {
		in.WriteString("1 10")
		in.WriteByte(byte('0' + i))
		in.WriteString(" 3 100 40\n")
	}
	var out, errOut strings.Builder
	code := admit([]string{"-dps", "sdps"}, strings.NewReader(in.String()), &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	s := out.String()
	if got := strings.Count(s, "ACCEPT"); got != 6 {
		t.Errorf("ACCEPT lines = %d, want 6\n%s", got, s)
	}
	if got := strings.Count(s, "REJECT"); got != 1 {
		t.Errorf("REJECT lines = %d, want 1", got)
	}
	if !strings.Contains(s, "6 accepted") || !strings.Contains(s, "1 rejected") {
		t.Errorf("summary missing:\n%s", s)
	}
	if !strings.Contains(s, "d_up=20 d_down=20") {
		t.Errorf("SDPS partition not reported:\n%s", s)
	}
}

func TestCommentsAndBlanksSkipped(t *testing.T) {
	input := "# header comment\n\n1 2 3 100 40\n"
	var out, errOut strings.Builder
	if code := admit(nil, strings.NewReader(input), &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "1 requests, 1 accepted") {
		t.Errorf("summary wrong:\n%s", out.String())
	}
}

func TestQuietMode(t *testing.T) {
	var out, errOut strings.Builder
	code := admit([]string{"-q"}, strings.NewReader("1 2 3 100 40\n"), &out, &errOut)
	if code != 0 {
		t.Fatal("exit", code)
	}
	if strings.Contains(out.String(), "ACCEPT") {
		t.Error("-q printed per-request lines")
	}
	if !strings.Contains(out.String(), "summary") {
		t.Error("-q suppressed the summary")
	}
}

func TestMalformedLine(t *testing.T) {
	var out, errOut strings.Builder
	code := admit(nil, strings.NewReader("not a spec\n"), &out, &errOut)
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(errOut.String(), "line 1") {
		t.Errorf("stderr = %q", errOut.String())
	}
}

func TestUnknownDPS(t *testing.T) {
	var out, errOut strings.Builder
	if code := admit([]string{"-dps", "xyz"}, strings.NewReader(""), &out, &errOut); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
}

func TestADPSPartitionReported(t *testing.T) {
	// Five channels from one master: ADPS settles at up=33/down=7.
	var in strings.Builder
	for i := 0; i < 5; i++ {
		in.WriteString("1 10")
		in.WriteByte(byte('0' + i))
		in.WriteString(" 3 100 40\n")
	}
	var out, errOut strings.Builder
	if code := admit([]string{"-dps", "adps"}, strings.NewReader(in.String()), &out, &errOut); code != 0 {
		t.Fatal("exit", code)
	}
	if !strings.Contains(out.String(), "ADPS") {
		t.Error("scheme name missing from summary")
	}
}

func TestDumpSnapshot(t *testing.T) {
	var out, errOut strings.Builder
	code := admit([]string{"-q", "-dump"}, strings.NewReader("1 2 3 100 40\n5 6 2 50 20\n"), &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	s := out.String()
	for _, want := range []string{`"id": 1`, `"up": 20`, `"down": 20`, `"src": 5`} {
		if !strings.Contains(s, want) {
			t.Errorf("snapshot missing %q:\n%s", want, s)
		}
	}
}

func TestBatchAcceptsAll(t *testing.T) {
	input := "1 100 3 100 40\n2 101 3 100 40\n3 102 3 100 40\n"
	var out, errOut strings.Builder
	code := admit([]string{"-dps", "adps", "-batch"}, strings.NewReader(input), &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	s := out.String()
	if got := strings.Count(s, "ACCEPT"); got != 3 {
		t.Errorf("ACCEPT lines = %d, want 3\n%s", got, s)
	}
	if !strings.Contains(s, "3 requests, 3 accepted") {
		t.Errorf("summary wrong:\n%s", s)
	}
}

func TestBatchAllOrNothing(t *testing.T) {
	// Seven channels on one uplink under SDPS: sequentially six fit, but
	// as one batch the whole set is refused.
	var in strings.Builder
	for i := 0; i < 7; i++ {
		in.WriteString("1 10")
		in.WriteByte(byte('0' + i))
		in.WriteString(" 3 100 40\n")
	}
	var out, errOut strings.Builder
	code := admit([]string{"-dps", "sdps", "-batch"}, strings.NewReader(in.String()), &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	s := out.String()
	if !strings.Contains(s, "BATCH REJECT") {
		t.Errorf("batch rejection not reported:\n%s", s)
	}
	if strings.Contains(s, "ACCEPT") {
		t.Errorf("all-or-nothing batch printed ACCEPT lines:\n%s", s)
	}
	if !strings.Contains(s, "7 requests, 0 accepted") {
		t.Errorf("summary wrong:\n%s", s)
	}
}

func TestInvalidSpecRejectedWithReason(t *testing.T) {
	var out, errOut strings.Builder
	// D < 2C.
	if code := admit(nil, strings.NewReader("1 2 3 100 5\n"), &out, &errOut); code != 0 {
		t.Fatal("exit", code)
	}
	if !strings.Contains(out.String(), "REJECT") ||
		!strings.Contains(out.String(), "store-and-forward") {
		t.Errorf("rejection reason missing:\n%s", out.String())
	}
}

func TestScenarioReplay(t *testing.T) {
	var out, errOut strings.Builder
	code := admit([]string{"-scenario", "testdata/dynamic.json"},
		strings.NewReader(""), &out, &errOut)
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
	code := admit([]string{"-scenario", "testdata/dynamic.json", "-q"},
		strings.NewReader(""), &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	if strings.Contains(out.String(), "slot ") {
		t.Errorf("-q still printed per-event lines:\n%s", out.String())
	}
}

func TestScenarioReplayMissingFile(t *testing.T) {
	var out, errOut strings.Builder
	if code := admit([]string{"-scenario", "nope.json"}, strings.NewReader(""), &out, &errOut); code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
}

func TestScenarioReplayDumpRejectedOnFabric(t *testing.T) {
	var out, errOut strings.Builder
	code := admit([]string{"-scenario", "testdata/dynamic.json", "-dump"},
		strings.NewReader(""), &out, &errOut)
	if code != 2 {
		t.Fatalf("exit %d, want 2 (up-front rejection)", code)
	}
	if !strings.Contains(errOut.String(), "star scenario") {
		t.Errorf("missing star-only diagnostic: %s", errOut.String())
	}
}
