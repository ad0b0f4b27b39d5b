package sweep

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"sync"

	"repro/internal/scenario"
)

// Options configures a sweep execution.
type Options struct {
	// Dir is the directory scenario paths resolve against — usually the
	// grid file's directory, so grids can ship next to their scenarios.
	Dir string
	// Progress receives one line per completed cell (nil = silent).
	Progress io.Writer
}

// Report is a sweep's merged document: one entry per cell, sorted by
// name.
type Report struct {
	Pkg        string   `json:"pkg"`
	Benchmarks []Result `json:"benchmarks"`
}

// Result is one cell's entry: its full name, the operations it ran and
// its counters keyed by metric name.
type Result struct {
	Name    string             `json:"name"`
	Runs    int64              `json:"runs"`
	Metrics map[string]float64 `json:"metrics"`
}

// WriteJSON emits the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// Run executes every cell of the grid and merges the results into one
// document: one entry per cell, named
// "BenchmarkSweep/<grid>/<axis=value>/...", carrying the cell's verdict
// counts and admission-kernel counters. Cells execute in canonical
// order, fanned out across min(parallel, cells) goroutines; the entries
// are sorted by name regardless of completion order, so a sweep is
// byte-identical run over run. The first cell failure aborts the sweep.
func (g *Grid) Run(ctx context.Context, opts Options) (*Report, error) {
	cells := g.Cells()
	parallel := g.Parallel
	if parallel < 1 {
		parallel = 1
	}
	if parallel > len(cells) {
		parallel = len(cells)
	}

	type outcome struct {
		res Result
		err error
	}
	results := make([]outcome, len(cells))
	var wg sync.WaitGroup
	sem := make(chan struct{}, parallel)
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var progressMu sync.Mutex
	done := 0
	for i := range cells {
		if cctx.Err() != nil {
			break
		}
		sem <- struct{}{}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			res, err := g.runCell(&cells[i], opts)
			results[i] = outcome{res: res, err: err}
			if err != nil {
				cancel() // abort the remaining cells
				return
			}
			if opts.Progress != nil {
				progressMu.Lock()
				done++
				fmt.Fprintf(opts.Progress, "sweep: [%d/%d] %s: %d ops\n", done, len(cells), cellTitle(g, &cells[i]), res.Runs)
				progressMu.Unlock()
			}
		}(i)
	}
	wg.Wait()
	rep := &Report{Pkg: "repro/internal/sweep"}
	for i := range results {
		if err := results[i].err; err != nil {
			return nil, fmt.Errorf("sweep: cell %s: %w", cellTitle(g, &cells[i]), err)
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		rep.Benchmarks = append(rep.Benchmarks, results[i].res)
	}
	sort.Slice(rep.Benchmarks, func(i, j int) bool { return rep.Benchmarks[i].Name < rep.Benchmarks[j].Name })
	return rep, nil
}

// cellTitle is the cell's full benchmark name.
func cellTitle(g *Grid, c *Cell) string {
	name := "BenchmarkSweep/" + sanitizeName(g.Name)
	if cn := c.Name(); cn != "" {
		name += "/" + cn
	}
	return name
}

// sanitizeName makes a grid name whitespace-free, so cell names stay
// one token.
func sanitizeName(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch r {
		case ' ', '\t', '\n':
			out = append(out, '_')
		default:
			out = append(out, r)
		}
	}
	return string(out)
}

// runCell derives the cell's scenario and runs it as a replay or, with
// simulate, as a full simulation.
func (g *Grid) runCell(c *Cell, opts Options) (Result, error) {
	s, err := g.cellScenario(c, opts)
	if err != nil {
		return Result{}, err
	}
	if g.Simulate {
		return g.runSimulateCell(c, s)
	}
	return g.runReplayCell(c, s)
}

// cellScenario loads the cell's base scenario and applies its axis
// overrides to it: each cell loads its own copy, which nothing else
// holds.
func (g *Grid) cellScenario(c *Cell, opts Options) (*scenario.Scenario, error) {
	path := g.Scenario
	if c.Scenario != "" {
		path = c.Scenario
	}
	if !filepath.IsAbs(path) {
		path = filepath.Join(opts.Dir, path)
	}
	s, err := scenario.LoadFile(path)
	if err != nil {
		return nil, err
	}
	if c.Scheme != "" {
		s.DPS = c.Scheme
	}
	if c.FailurePolicy != "" {
		s.FailurePolicy = c.FailurePolicy
	}
	if g.Seed != 0 {
		s.Seed = g.Seed
	}
	if c.ChurnRate > 0 {
		if len(s.Churn) == 0 {
			return nil, &AxisError{Axis: AxisChurnRate, Msg: fmt.Sprintf("scenario %q declares no churn generators to scale", path)}
		}
		for i := range s.Churn {
			s.Churn[i].Rate = c.ChurnRate
		}
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// runReplayCell runs the cell against the admission plane in-process,
// with no virtual time passing: scenario Replay, the executor of `rtexp
// admit -scenario`, or for a batch=each cell ReplayEach, which merges
// consecutive establishes into EstablishEach groups. Either plays the
// whole timeline: reconfigure, publish and failure events included.
func (g *Grid) runReplayCell(c *Cell, s *scenario.Scenario) (Result, error) {
	replay := s.Replay
	if c.Batch == "each" {
		replay = s.ReplayEach
	}
	res, err := replay()
	if err != nil {
		return Result{}, err
	}
	defer res.Network.Close()
	m := res.Counts()
	stats := res.Network.AdmissionStats()
	return Result{
		Name: cellTitle(g, c),
		Runs: int64(m.Ops),
		Metrics: map[string]float64{
			"accepted":      float64(m.Accepted),
			"rejected":      float64(m.Rejected),
			"released":      float64(m.Released),
			"skipped":       float64(m.Skipped),
			"repartitions":  float64(stats.Repartitions),
			"links-checked": float64(stats.LinksChecked),
		},
	}, nil
}

// runSimulateCell plays the cell's full scenario simulation — virtual
// time, traffic sources, background load — and reports the delivery and
// miss profile alongside the admission counts.
func (g *Grid) runSimulateCell(c *Cell, s *scenario.Scenario) (Result, error) {
	res, err := s.Run()
	if err != nil {
		return Result{}, err
	}
	defer res.Network.Close()

	evAccepted, evRejected, evSkipped := res.EventCounts()
	var delivered, misses int64
	for _, ch := range res.Report.Channels {
		delivered += ch.Delivered
		misses += ch.Misses
	}
	ops := len(res.Accepted) + res.Rejected + len(res.Events)
	stats := res.Network.AdmissionStats()
	return Result{
		Name: cellTitle(g, c),
		Runs: int64(ops),
		Metrics: map[string]float64{
			"accepted":        float64(len(res.Accepted) + evAccepted),
			"rejected":        float64(res.Rejected + evRejected),
			"skipped":         float64(evSkipped),
			"repartitions":    float64(stats.Repartitions),
			"rt-delivered":    float64(delivered),
			"rt-misses":       float64(misses),
			"bg-sent":         float64(res.BgSent),
			"nonrt-delivered": float64(res.Report.NonRTDelivered),
			"nonrt-drops":     float64(res.Report.NonRTDrops),
		},
	}, nil
}
