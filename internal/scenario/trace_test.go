package scenario

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/traffic"
)

// writeTrace writes a synthetic trace file and returns its path.
func writeTrace(t *testing.T, dir string, seed int64, flows [][2]uint16, rate float64, horizon int64) string {
	t.Helper()
	tr := traffic.SyntheticTrace(rand.New(rand.NewSource(seed)), flows, rate, horizon)
	if len(tr.Events) == 0 {
		t.Fatal("synthetic trace is empty")
	}
	path := filepath.Join(dir, fmt.Sprintf("trace_%d.csv", seed))
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteCSV(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// starDoc renders a small star scenario with the given background
// sections spliced in.
func starDoc(background string) string {
	return fmt.Sprintf(`{
		"name": "trace bg",
		"slots": 1500,
		"seed": 5,
		"nonRTQueueCap": 2,
		"nodes": [1, 2, 3],
		"channels": [
			{"src": 1, "dst": 2, "c": 3, "p": 100, "d": 40},
			{"src": 2, "dst": 3, "c": 2, "p": 50, "d": 20}
		]%s
	}`, background)
}

// fingerprint condenses a run into the comparable miss/load profile.
func fingerprint(t *testing.T, doc string) string {
	t.Helper()
	s, err := Load(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Report
	var misses, delivered int64
	for _, m := range rep.Channels {
		misses += m.Misses
		delivered += m.Delivered
	}
	return fmt.Sprintf("bgSent=%d nonRT=%d drops=%d rtDelivered=%d rtMisses=%d nonRTMean=%.4f",
		res.BgSent, rep.NonRTDelivered, rep.NonRTDrops, delivered, misses, rep.NonRTDelay.Mean())
}

// TestBackgroundTraceVsPoisson pins the trace-driven load source: a
// recorded trace and a Poisson process produce different load profiles,
// and each is exactly reproducible run over run.
func TestBackgroundTraceVsPoisson(t *testing.T) {
	dir := t.TempDir()
	trace := writeTrace(t, dir, 99, [][2]uint16{{1, 3}, {3, 2}}, 0.4, 1500)

	poisson := starDoc(`, "background": [{"src": 1, "dst": 3, "rate": 0.1}]`)
	traced := starDoc(fmt.Sprintf(`, "backgroundTrace": %q`, trace))

	p1, p2 := fingerprint(t, poisson), fingerprint(t, poisson)
	if p1 != p2 {
		t.Errorf("Poisson background not reproducible:\n%s\n%s", p1, p2)
	}
	t1, t2 := fingerprint(t, traced), fingerprint(t, traced)
	if t1 != t2 {
		t.Errorf("trace background not reproducible:\n%s\n%s", t1, t2)
	}
	if p1 == t1 {
		t.Errorf("trace and Poisson background produced identical profiles: %s", p1)
	}
}

// TestBackgroundTraceStacksOnPoisson checks both sources can coexist:
// the trace arrivals add to the declared flows' frames.
func TestBackgroundTraceStacksOnPoisson(t *testing.T) {
	dir := t.TempDir()
	trace := writeTrace(t, dir, 7, [][2]uint16{{1, 3}}, 0.2, 1500)
	both := starDoc(fmt.Sprintf(`, "background": [{"src": 1, "dst": 3, "rate": 0.05}], "backgroundTrace": %q`, trace))
	poissonOnly := starDoc(`, "background": [{"src": 1, "dst": 3, "rate": 0.05}]`)

	load := func(doc string) int {
		s, err := Load(strings.NewReader(doc))
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.BgSent
	}
	if b, p := load(both), load(poissonOnly); b <= p {
		t.Errorf("stacked run sent %d bg frames, Poisson-only sent %d — trace added nothing", b, p)
	}
}

// TestBackgroundTraceValidation covers the load-time rejections: fabric
// topologies, missing files, malformed lines (with their line number)
// and undeclared endpoints.
func TestBackgroundTraceValidation(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.csv")
	if err := os.WriteFile(bad, []byte("0,1,2\nnot,a,line\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	stranger := filepath.Join(dir, "stranger.csv")
	if err := os.WriteFile(stranger, []byte("0,1,99\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	fabric := fmt.Sprintf(`{
		"name": "fabric trace", "slots": 100, "backgroundTrace": %q,
		"topology": {
			"switches": [0, 1], "trunks": [[0, 1]],
			"attachments": [{"node": 1, "switch": 0}, {"node": 2, "switch": 1}]
		},
		"channels": []
	}`, stranger)

	cases := []struct {
		name, doc, wantErr string
	}{
		{"fabric", fabric, "star network"},
		{"missing file", starDoc(fmt.Sprintf(`, "backgroundTrace": %q`, filepath.Join(dir, "nope.csv"))), "backgroundTrace"},
		{"malformed line", starDoc(fmt.Sprintf(`, "backgroundTrace": %q`, bad)), "line 2"},
		{"undeclared node", starDoc(fmt.Sprintf(`, "backgroundTrace": %q`, stranger)), "undeclared node"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Load(strings.NewReader(tc.doc))
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("err = %v, want substring %q", err, tc.wantErr)
			}
		})
	}
}
