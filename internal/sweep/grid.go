// Package sweep is the engine behind `rtexp sweep`: one JSON document
// declares a parameter grid over the admission kernel's degrees of
// freedom — partitioning scheme, scenario file, churn rate,
// establishment batching, failure policy — and the orchestrator expands
// it into the cartesian product of runs, executes every cell in-process
// against the scenario machinery and merges the results into one JSON
// document keyed by axis=value labels. The document holds counts only,
// so the same grid writes the same bytes on every run.
package sweep

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// Axis names, in canonical expansion order. Cells enumerate the product
// in this order regardless of how the JSON document orders its axes
// map, so the same grid always yields the same cell sequence.
const (
	// AxisScheme varies the deadline-partitioning scheme: "sdps" or
	// "adps" (mapped to H-SDPS/H-ADPS on fabrics, like the scenario
	// field it overrides).
	AxisScheme = "scheme"
	// AxisScenario varies the base scenario document itself — the
	// topology axis of a sweep. Paths resolve relative to the grid file.
	AxisScenario = "scenario"
	// AxisChurnRate scales the workload: the value replaces the Rate of
	// every churn generator in the scenario (which must declare at least
	// one).
	AxisChurnRate = "churnRate"
	// AxisBatch varies how in-process replay submits establishes:
	// "sequential" (one management-plane decision each) or "each"
	// (consecutive establishes merged into EstablishEach groups, the
	// coalesced path). Replay mode only.
	AxisBatch = "batch"
	// AxisFailurePolicy varies the degradation ladder applied to
	// channels displaced by failure events: "reject", "degrade" or
	// "preempt".
	AxisFailurePolicy = "failurePolicy"
)

// axisOrder fixes the canonical axis expansion order.
var axisOrder = []string{
	AxisScheme, AxisScenario, AxisChurnRate,
	AxisBatch, AxisFailurePolicy,
}

// ModeInProcess is the one grid mode: every cell executes inside the
// orchestrator process against the scenario machinery — an
// admission-plane workload replay by default, a full simulation with
// simulate: true.
const ModeInProcess = "inprocess"

// AxisError reports an invalid axis declaration, naming the offending
// axis — the typed error the grid loader's fuzz contract pins.
type AxisError struct {
	Axis string // the axis at fault
	Msg  string // what is wrong with it
}

// Error renders the diagnostic.
func (e *AxisError) Error() string { return fmt.Sprintf("sweep: axis %q: %s", e.Axis, e.Msg) }

// Grid is the declarative sweep document.
type Grid struct {
	// Name titles the sweep; it prefixes every cell's benchmark name.
	Name string `json:"name"`
	// Scenario is the base scenario document every cell derives from
	// (resolved relative to the grid file). Omit it only when a
	// "scenario" axis supplies one per cell.
	Scenario string `json:"scenario,omitempty"`
	// Mode names the executor; "inprocess" (the default) is the only one.
	Mode string `json:"mode,omitempty"`
	// Simulate switches cells from an admission-plane workload replay to
	// the full simulation (scenario Run): virtual time passes, traffic
	// flows, and cells report delivery/miss profiles.
	Simulate bool `json:"simulate,omitempty"`
	// Seed overrides the base scenario's seed when non-zero, so one grid
	// document fully determines the synthesized workloads.
	Seed int64 `json:"seed,omitempty"`
	// MaxOps caps each cell's workload items (0 = whole workload).
	MaxOps int `json:"maxOps,omitempty"`
	// Parallel bounds how many cells execute concurrently (default 1 —
	// sequential).
	Parallel int `json:"parallel,omitempty"`
	// Axes declares the grid dimensions: axis name → value list. Every
	// combination of values (one per axis) becomes one cell.
	Axes map[string][]json.RawMessage `json:"axes"`

	// axes holds the validated axes in canonical order.
	axes []axis
}

// axis is one validated grid dimension: canonical string labels plus
// the typed values expansion assigns to cells.
type axis struct {
	name   string
	labels []string // canonical per-value labels, e.g. "0.5", "adps"
	values []any    // typed: string or float64, matching the axis
}

// LoadGrid parses and validates a grid document. Any malformed input
// returns an error — *AxisError for per-axis problems (unknown axis
// name, empty range, invalid or duplicate value), a plain error for
// document-level ones. It never panics, whatever the input (pinned by
// FuzzLoadGrid).
func LoadGrid(r io.Reader) (*Grid, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var g Grid
	if err := dec.Decode(&g); err != nil {
		return nil, fmt.Errorf("sweep: parse: %w", err)
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return &g, nil
}

// LoadGridFile is LoadGrid over a file.
func LoadGridFile(path string) (*Grid, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	g, err := LoadGrid(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return g, nil
}

// Validate checks the document: mode, axis names, every axis range and
// the cross-field constraints (batch needs the replay executor, a
// scenario must come from somewhere).
func (g *Grid) Validate() error {
	if g.Name == "" {
		return fmt.Errorf("sweep: grid needs a name")
	}
	if g.Mode != "" && g.Mode != ModeInProcess {
		return fmt.Errorf("sweep: unknown mode %q (want %q)", g.Mode, ModeInProcess)
	}
	if g.MaxOps < 0 {
		return fmt.Errorf("sweep: negative maxOps")
	}
	if g.Parallel < 0 {
		return fmt.Errorf("sweep: negative parallel")
	}

	known := make(map[string]bool, len(axisOrder))
	for _, name := range axisOrder {
		known[name] = true
	}
	for name := range g.Axes {
		if !known[name] {
			return &AxisError{Axis: name, Msg: fmt.Sprintf("unknown axis (known: %s)", strings.Join(axisOrder, ", "))}
		}
	}
	g.axes = g.axes[:0]
	for _, name := range axisOrder {
		raws, ok := g.Axes[name]
		if !ok {
			continue
		}
		ax := axis{name: name}
		if len(raws) == 0 {
			return &AxisError{Axis: name, Msg: "empty range"}
		}
		seen := make(map[string]bool, len(raws))
		for _, raw := range raws {
			label, value, err := parseAxisValue(name, raw)
			if err != nil {
				return err
			}
			if seen[label] {
				return &AxisError{Axis: name, Msg: fmt.Sprintf("duplicate value %q (cells would collide)", label)}
			}
			seen[label] = true
			ax.labels = append(ax.labels, label)
			ax.values = append(ax.values, value)
		}
		g.axes = append(g.axes, ax)
	}

	if g.Scenario == "" && !g.hasAxis(AxisScenario) {
		return fmt.Errorf("sweep: no scenario: set the grid's scenario field or declare a scenario axis")
	}
	if g.Scenario != "" && g.hasAxis(AxisScenario) {
		return &AxisError{Axis: AxisScenario, Msg: "scenario axis and top-level scenario are mutually exclusive"}
	}
	if g.hasAxis(AxisBatch) && g.Simulate {
		return &AxisError{Axis: AxisBatch, Msg: "batch is a replay axis (not with simulate)"}
	}
	return nil
}

// hasAxis reports whether the validated axis set declares name.
func (g *Grid) hasAxis(name string) bool {
	for _, ax := range g.axes {
		if ax.name == name {
			return true
		}
	}
	return false
}

// parseAxisValue validates one raw JSON value against its axis' domain
// and returns the canonical label plus the typed value.
func parseAxisValue(axisName string, raw json.RawMessage) (string, any, error) {
	bad := func(format string, args ...any) (string, any, error) {
		return "", nil, &AxisError{Axis: axisName, Msg: fmt.Sprintf(format, args...)}
	}
	wantString := func(domain ...string) (string, any, error) {
		var s string
		if err := json.Unmarshal(raw, &s); err != nil {
			return bad("value %s: want a string", strings.TrimSpace(string(raw)))
		}
		s = strings.ToLower(strings.TrimSpace(s))
		if s == "" {
			return bad("empty value")
		}
		if len(domain) > 0 {
			for _, d := range domain {
				if s == d {
					return s, s, nil
				}
			}
			return bad("value %q not in {%s}", s, strings.Join(domain, ", "))
		}
		return s, s, nil
	}
	switch axisName {
	case AxisScheme:
		return wantString("sdps", "adps")
	case AxisBatch:
		return wantString("sequential", "each")
	case AxisFailurePolicy:
		return wantString("reject", "degrade", "preempt")
	case AxisScenario:
		var s string
		if err := json.Unmarshal(raw, &s); err != nil {
			return bad("value %s: want a file path", strings.TrimSpace(string(raw)))
		}
		if strings.TrimSpace(s) == "" {
			return bad("empty path")
		}
		// The label is the basename sans extension — readable cell names
		// even for testdata/deep/path.json — but collisions on basename
		// are still duplicates (cells must stay distinguishable).
		return scenarioLabel(s), s, nil
	case AxisChurnRate:
		var v float64
		if err := json.Unmarshal(raw, &v); err != nil {
			return bad("value %s: want a number", strings.TrimSpace(string(raw)))
		}
		if v <= 0 {
			return bad("rate %v must be positive", v)
		}
		return formatFloat(v), v, nil
	}
	return bad("unknown axis")
}

// scenarioLabel derives a cell-label from a scenario path.
func scenarioLabel(path string) string {
	base := path
	if i := strings.LastIndexAny(base, `/\`); i >= 0 {
		base = base[i+1:]
	}
	if i := strings.LastIndex(base, "."); i > 0 {
		base = base[:i]
	}
	return base
}

// formatFloat renders an axis number the way the labels stay shortest
// and stable ("0.5", "2", "2.25").
func formatFloat(v float64) string {
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%f", v), "0"), ".")
}

// Label is one axis=value coordinate of a cell.
type Label struct {
	Axis  string
	Value string
}

// Cell is one expanded run of the grid: its coordinate labels (in
// canonical axis order) plus the typed parameter overrides execution
// applies to the base scenario.
type Cell struct {
	Labels []Label

	Scheme        string  // "" = scenario default
	Scenario      string  // "" = grid-level scenario
	ChurnRate     float64 // 0 = scenario default
	Batch         string  // "" = sequential
	FailurePolicy string  // "" = scenario default
}

// Name renders the cell's identity: "scheme=adps/churnRate=0.5". The
// grid name plus this string keys the cell in the merged document.
func (c *Cell) Name() string {
	parts := make([]string, len(c.Labels))
	for i, l := range c.Labels {
		parts[i] = l.Axis + "=" + l.Value
	}
	return strings.Join(parts, "/")
}

// Cells expands the grid into the cartesian product of its axis values,
// in canonical axis order (the last-listed axis varies fastest). A grid
// with no axes is one bare cell. Validate must have succeeded (LoadGrid
// guarantees it).
func (g *Grid) Cells() []Cell {
	cells := []Cell{{}}
	for _, ax := range g.axes {
		next := make([]Cell, 0, len(cells)*len(ax.labels))
		for _, base := range cells {
			for i := range ax.labels {
				c := base
				c.Labels = append(append([]Label{}, base.Labels...), Label{Axis: ax.name, Value: ax.labels[i]})
				c.apply(ax.name, ax.values[i])
				next = append(next, c)
			}
		}
		cells = next
	}
	return cells
}

// apply sets one typed axis value on the cell.
func (c *Cell) apply(axisName string, v any) {
	switch axisName {
	case AxisScheme:
		c.Scheme = v.(string)
	case AxisScenario:
		c.Scenario = v.(string)
	case AxisChurnRate:
		c.ChurnRate = v.(float64)
	case AxisBatch:
		c.Batch = v.(string)
	case AxisFailurePolicy:
		c.FailurePolicy = v.(string)
	}
}

// AxisNames returns the declared axis names in canonical order — the
// column set of a sweep comparison table.
func (g *Grid) AxisNames() []string {
	names := make([]string, len(g.axes))
	for i, ax := range g.axes {
		names[i] = ax.name
	}
	return names
}
