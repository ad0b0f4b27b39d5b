package traffic

import (
	"bytes"
	"encoding/json"
	"errors"
	"math/rand"
	"strings"
	"testing"
)

// TestParseTraceGolden pins the exact event sequence a known file
// replays to, in both line formats and mixed.
func TestParseTraceGolden(t *testing.T) {
	const input = `at,src,dst
# warm-up burst
0,1,2
0,1,3
{"at": 4, "src": 2, "dst": 1}
17,1,2

250,3,1
`
	tr, err := ParseTrace(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	want := []TraceEvent{
		{At: 0, Src: 1, Dst: 2},
		{At: 0, Src: 1, Dst: 3},
		{At: 4, Src: 2, Dst: 1},
		{At: 17, Src: 1, Dst: 2},
		{At: 250, Src: 3, Dst: 1},
	}
	if len(tr.Events) != len(want) {
		t.Fatalf("parsed %d events, want %d: %+v", len(tr.Events), len(want), tr.Events)
	}
	for i, ev := range want {
		if tr.Events[i] != ev {
			t.Errorf("event %d = %+v, want %+v", i, tr.Events[i], ev)
		}
	}
	if tr.Horizon() != 251 {
		t.Errorf("Horizon() = %d, want 251", tr.Horizon())
	}
}

// TestParseTraceMalformed pins the line numbers malformed inputs are
// rejected with.
func TestParseTraceMalformed(t *testing.T) {
	cases := []struct {
		name     string
		input    string
		wantLine int
		wantMsg  string
	}{
		{"too few fields", "0,1,2\n5,9\n", 2, "want 3 CSV fields"},
		{"too many fields", "0,1,2,3\n", 1, "want 3 CSV fields"},
		{"bad at", "x,1,2\n", 1, "bad at"},
		{"bad src", "0,notanode,2\n", 1, "bad src"},
		{"bad dst", "0,1,70000\n", 1, "bad dst"},
		{"negative slot", "0,1,2\n-4,1,2\n", 2, "negative slot"},
		{"bad json", `{"at": "zero"}` + "\n", 1, "bad JSON event"},
		{"unknown json field", `{"at": 0, "src": 1, "dst": 2, "size": 64}` + "\n", 1, "bad JSON event"},
		{"json trailing data", `{"at": 0, "src": 1, "dst": 2} extra` + "\n", 1, "trailing data"},
		{"out of order", "9,1,2\n3,1,2\n", 2, "out of order"},
		{"header not on line 1", "0,1,2\nat,src,dst\n", 2, "bad at"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseTrace(strings.NewReader(tc.input))
			var te *TraceError
			if !errors.As(err, &te) {
				t.Fatalf("err = %v, want *TraceError", err)
			}
			if te.Line != tc.wantLine {
				t.Errorf("line = %d, want %d (%v)", te.Line, tc.wantLine, te)
			}
			if !strings.Contains(te.Msg, tc.wantMsg) {
				t.Errorf("msg = %q, want substring %q", te.Msg, tc.wantMsg)
			}
		})
	}
}

// TestTraceRoundTrip writes a trace out in both formats and reads each
// back to the identical event sequence.
func TestTraceRoundTrip(t *testing.T) {
	orig := &Trace{Events: []TraceEvent{
		{At: 0, Src: 1, Dst: 2}, {At: 0, Src: 2, Dst: 1}, {At: 99, Src: 3, Dst: 4},
	}}
	for _, form := range []struct {
		name  string
		write func(*Trace, *bytes.Buffer) error
	}{
		{"csv", func(tr *Trace, b *bytes.Buffer) error { return tr.WriteCSV(b) }},
		{"ndjson", func(tr *Trace, b *bytes.Buffer) error {
			enc := json.NewEncoder(b) // one object per line
			for _, ev := range tr.Events {
				if err := enc.Encode(ev); err != nil {
					return err
				}
			}
			return nil
		}},
	} {
		t.Run(form.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := form.write(orig, &buf); err != nil {
				t.Fatal(err)
			}
			back, err := ParseTrace(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatalf("round trip failed: %v\n%s", err, buf.String())
			}
			if len(back.Events) != len(orig.Events) {
				t.Fatalf("round trip lost events: %+v", back.Events)
			}
			for i := range orig.Events {
				if back.Events[i] != orig.Events[i] {
					t.Errorf("event %d = %+v, want %+v", i, back.Events[i], orig.Events[i])
				}
			}
		})
	}
}

// TestSyntheticTraceDeterministic pins the generator: same seed, same
// trace; the output is ordered and parseable.
func TestSyntheticTraceDeterministic(t *testing.T) {
	gen := func() *Trace {
		rng := rand.New(rand.NewSource(42))
		return SyntheticTrace(rng, [][2]uint16{{1, 2}, {3, 4}}, 0.2, 500)
	}
	a, b := gen(), gen()
	if len(a.Events) == 0 {
		t.Fatal("synthetic trace is empty")
	}
	if len(a.Events) != len(b.Events) {
		t.Fatalf("lengths diverged: %d vs %d", len(a.Events), len(b.Events))
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			t.Fatalf("event %d diverged: %+v vs %+v", i, a.Events[i], b.Events[i])
		}
	}
	var buf bytes.Buffer
	if err := a.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseTrace(bytes.NewReader(buf.Bytes())); err != nil {
		t.Errorf("synthetic trace does not parse back: %v", err)
	}
	for i := 1; i < len(a.Events); i++ {
		if a.Events[i].At < a.Events[i-1].At {
			t.Fatalf("synthetic trace out of order at %d", i)
		}
	}
}
