package sweep

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

// TestLoadGridValidation pins the loader's diagnostics: every malformed
// document is rejected with an error naming what is wrong, and per-axis
// problems surface as *AxisError naming the offending axis.
func TestLoadGridValidation(t *testing.T) {
	cases := []struct {
		name     string
		doc      string
		wantErr  string // substring of the error text
		wantAxis string // non-empty: the error must be an *AxisError for this axis
	}{
		{
			name:    "not json",
			doc:     `{"name": `,
			wantErr: "sweep: parse",
		},
		{
			name:    "unknown top-level field",
			doc:     `{"name": "g", "scenario": "s.json", "bogus": 1}`,
			wantErr: "sweep: parse",
		},
		{
			name:    "missing name",
			doc:     `{"scenario": "s.json"}`,
			wantErr: "needs a name",
		},
		{
			name:    "unknown mode",
			doc:     `{"name": "g", "scenario": "s.json", "mode": "cluster"}`,
			wantErr: "sweep: parse",
		},
		{
			name:    "retired daemon mode",
			doc:     `{"name": "g", "scenario": "s.json", "mode": "daemon", "simulate": true}`,
			wantErr: "sweep: parse",
		},
		{
			name:    "no scenario anywhere",
			doc:     `{"name": "g", "axes": {"scheme": ["sdps"]}}`,
			wantErr: "no scenario",
		},
		{
			name:     "unknown axis",
			doc:      `{"name": "g", "scenario": "s.json", "axes": {"colour": ["red"]}}`,
			wantErr:  "unknown axis",
			wantAxis: "colour",
		},
		{
			name:     "empty range",
			doc:      `{"name": "g", "scenario": "s.json", "axes": {"scheme": []}}`,
			wantErr:  "empty range",
			wantAxis: AxisScheme,
		},
		{
			name:     "duplicate cell",
			doc:      `{"name": "g", "scenario": "s.json", "axes": {"scheme": ["sdps", "SDPS"]}}`,
			wantErr:  "duplicate value",
			wantAxis: AxisScheme,
		},
		{
			name:     "scheme out of domain",
			doc:      `{"name": "g", "scenario": "s.json", "axes": {"scheme": ["edf"]}}`,
			wantErr:  "not in {sdps, adps}",
			wantAxis: AxisScheme,
		},
		{
			name:     "scheme wrong type",
			doc:      `{"name": "g", "scenario": "s.json", "axes": {"scheme": [3]}}`,
			wantErr:  "want a string",
			wantAxis: AxisScheme,
		},
		{
			name:     "negative churn rate",
			doc:      `{"name": "g", "scenario": "s.json", "axes": {"churnRate": [-0.5]}}`,
			wantErr:  "must be positive",
			wantAxis: AxisChurnRate,
		},
		{
			name:     "retired workers axis",
			doc:      `{"name": "g", "scenario": "s.json", "axes": {"workers": [1]}}`,
			wantErr:  "unknown axis",
			wantAxis: "workers",
		},
		{
			name:     "scenario axis and top-level scenario",
			doc:      `{"name": "g", "scenario": "s.json", "axes": {"scenario": ["t.json"]}}`,
			wantErr:  "mutually exclusive",
			wantAxis: AxisScenario,
		},
		{
			name:     "retired transport axis",
			doc:      `{"name": "g", "scenario": "s.json", "axes": {"transport": ["json"]}}`,
			wantErr:  "unknown axis",
			wantAxis: "transport",
		},
		{
			name:     "batch with simulate",
			doc:      `{"name": "g", "scenario": "s.json", "simulate": true, "axes": {"batch": ["each"]}}`,
			wantErr:  "replay axis",
			wantAxis: AxisBatch,
		},
		{
			name:    "retired maxOps field",
			doc:     `{"name": "g", "scenario": "s.json", "maxOps": 10}`,
			wantErr: "sweep: parse",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := LoadGrid(strings.NewReader(tc.doc))
			if err == nil {
				t.Fatal("malformed grid accepted")
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
			var ae *AxisError
			if tc.wantAxis != "" {
				if !errors.As(err, &ae) {
					t.Fatalf("error %q is not an *AxisError", err)
				}
				if ae.Axis != tc.wantAxis {
					t.Fatalf("AxisError names %q, want %q", ae.Axis, tc.wantAxis)
				}
			}
		})
	}
}

// TestCellsExpansion pins the cartesian product and its canonical
// order: axes expand in axisOrder regardless of JSON order, the
// last-declared axis varies fastest, and labels join into the cell's
// identity string.
func TestCellsExpansion(t *testing.T) {
	doc := `{
		"name": "expand",
		"scenario": "s.json",
		"axes": {
			"churnRate": [0.25, 0.5],
			"scheme": ["sdps", "adps"]
		}
	}`
	g, err := LoadGrid(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	cells := g.Cells()
	want := []string{
		"scheme=sdps/churnRate=0.25",
		"scheme=sdps/churnRate=0.5",
		"scheme=adps/churnRate=0.25",
		"scheme=adps/churnRate=0.5",
	}
	if len(cells) != len(want) {
		t.Fatalf("got %d cells, want %d", len(cells), len(want))
	}
	for i, c := range cells {
		if c.Name() != want[i] {
			t.Errorf("cell %d = %q, want %q", i, c.Name(), want[i])
		}
	}
	if cells[2].Scheme != "adps" || cells[2].ChurnRate != 0.25 {
		t.Errorf("typed overrides not applied: %+v", cells[2])
	}
}

// TestCellsNoAxes: a grid without axes is one bare cell.
func TestCellsNoAxes(t *testing.T) {
	g, err := LoadGrid(strings.NewReader(`{"name": "bare", "scenario": "s.json"}`))
	if err != nil {
		t.Fatal(err)
	}
	cells := g.Cells()
	if len(cells) != 1 || cells[0].Name() != "" {
		t.Fatalf("bare grid cells = %+v", cells)
	}
}

// FuzzLoadGrid pins the loader's robustness contract: arbitrary input
// never panics, and per-axis rejections always surface as *AxisError
// naming the offending axis in the message.
func FuzzLoadGrid(f *testing.F) {
	f.Add(`{"name": "g", "scenario": "s.json", "axes": {"scheme": ["sdps", "adps"]}}`)
	f.Add(`{"name": "g", "scenario": "s.json", "axes": {"churnRate": [0.1, 1]}}`)
	f.Add(`{"name": "g", "mode": "daemon", "scenario": "s.json", "axes": {"transport": ["json", "binary"]}}`)
	f.Add(`{"name": "g", "axes": {"scheme": []}}`)
	f.Add(`{"name": "g", "axes": {"bogus": [1]}}`)
	f.Add(`{"axes": {"workers": [0, 1.5, 4096, -1]}}`)
	f.Add(`[1, 2, 3]`)
	f.Add(`{"name": "g", "scenario": "s.json", "axes": {"scheme": ["sdps", "sdps"]}}`)
	f.Add("")
	f.Fuzz(func(t *testing.T, doc string) {
		g, err := LoadGrid(strings.NewReader(doc))
		if err != nil {
			var ae *AxisError
			if errors.As(err, &ae) {
				// The diagnostic must name the offending axis — its
				// quoted form, so even a bizarre empty or whitespace
				// axis key is pointed at unambiguously.
				if !strings.Contains(err.Error(), fmt.Sprintf("%q", ae.Axis)) {
					t.Fatalf("AxisError text %q does not name axis %q", err, ae.Axis)
				}
			}
			return
		}
		// A loaded grid must expand cleanly: at least one cell, every
		// cell's name formed from declared axes only.
		cells := g.Cells()
		if len(cells) == 0 {
			t.Fatal("valid grid expanded to zero cells")
		}
		names := make(map[string]bool, len(cells))
		for _, c := range cells {
			if names[c.Name()] {
				t.Fatalf("duplicate cell name %q", c.Name())
			}
			names[c.Name()] = true
		}
	})
}
