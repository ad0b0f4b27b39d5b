// Command rtexp regenerates the paper's evaluation: every table and
// figure in the experiment index (rtexp -list). With no flags it runs
// everything; -exp selects a comma-separated subset; -csv switches the
// output to machine-readable CSV. -parsebench turns `go test -bench`
// text output into a JSON artifact for CI benchmark trajectories;
// additional positional arguments name further input files — raw bench
// text or previously emitted BENCH_*.json artifacts (rtload's output,
// say) — merged into one JSON document. Each entry is annotated with
// its source file and the merged document is stably sorted by
// benchmark name, then source, so one input set produces byte-identical
// JSON regardless of argument order.
//
//	rtexp                      # all experiments, aligned tables
//	rtexp -exp fig18.5         # just the headline figure
//	rtexp -exp fig18.5,dsweep -csv
//	rtexp -list                # enumerate experiment IDs
//
// With -baseline the merged document is additionally compared against a
// previous artifact: every benchmark present in both (matched by name)
// gets a ns/op delta line on stderr, and any slowdown beyond -threshold
// percent makes rtexp exit non-zero — CI's regression gate.
//
//	go test -bench A . | tee bench.txt && rtexp -parsebench bench.txt > BENCH_A.json
//	rtexp -parsebench bench.txt BENCH_rtload.json > BENCH_all.json
//	rtexp -parsebench bench.txt -baseline BENCH_prev.json -threshold 15 > BENCH_new.json
//
// -sweep makes rtexp an experiment platform: the argument is a grid
// document (docs/experiments.md) declaring axes over scheme, scenario,
// churn rate, batching, transport and failure policy. rtexp expands the
// grid into its cartesian product of cells, executes every cell —
// in-process, or against rtetherd daemons it boots and drains itself —
// and writes the merged per-cell BENCH document to -out. With -baseline
// the same regression gate runs over the cells: aligned delta lines on
// stderr, non-zero exit on any cell slower than -threshold percent.
//
//	rtexp -sweep grid.json -out BENCH_sweep.json
//	rtexp -sweep grid.json -baseline BENCH_sweep_prev.json -threshold 15
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"

	"repro/internal/benchfmt"
	"repro/internal/exp"
	"repro/internal/sweep"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rtexp", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		sel       = fs.String("exp", "all", "comma-separated experiment IDs, or 'all'")
		csv       = fs.Bool("csv", false, "emit CSV instead of aligned tables")
		list      = fs.Bool("list", false, "list experiment IDs and exit")
		bench     = fs.String("parsebench", "", "parse `go test -bench` text or BENCH JSON from the given file ('-' = stdin) plus any positional files, merge, and emit JSON")
		sweepFile = fs.String("sweep", "", "grid document: expand the declared axes, execute every cell, emit the merged BENCH JSON")
		out       = fs.String("out", "-", "with -sweep: BENCH JSON output file ('-' = stdout)")
		baseline  = fs.String("baseline", "", "with -parsebench or -sweep: prior BENCH artifact to diff ns/op against (regressions beyond -threshold fail the run)")
		threshold = fs.Float64("threshold", 15, "with -baseline: max tolerated ns/op slowdown, percent")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *sweepFile != "" && *bench != "" {
		fmt.Fprintln(stderr, "rtexp: -sweep and -parsebench are mutually exclusive")
		return 2
	}

	if *sweepFile != "" {
		return runSweep(*sweepFile, *out, *baseline, *threshold, stdout, stderr)
	}

	if *bench != "" {
		reports := make([]*benchfmt.Report, 0, 1+fs.NArg())
		for _, path := range append([]string{*bench}, fs.Args()...) {
			rep, err := benchfmt.ParseFile(path)
			if err != nil {
				fmt.Fprintf(stderr, "rtexp: parsebench: %v\n", err)
				return 1
			}
			reports = append(reports, rep)
		}
		merged := benchfmt.Merge(reports...)
		merged.Sort()
		if err := merged.WriteJSON(stdout); err != nil {
			fmt.Fprintf(stderr, "rtexp: parsebench: %v\n", err)
			return 1
		}
		if *baseline != "" {
			if code := gate(merged, *baseline, *threshold, stderr); code != 0 {
				return code
			}
		}
		return 0
	}

	all := exp.All()
	if *list {
		for _, e := range all {
			fmt.Fprintf(stdout, "%-12s %s\n", e.ID, e.Desc)
		}
		return 0
	}

	want := map[string]bool{}
	if *sel != "all" {
		for _, id := range strings.Split(*sel, ",") {
			want[strings.TrimSpace(id)] = true
		}
		for id := range want {
			if !knownID(all, id) {
				fmt.Fprintf(stderr, "rtexp: unknown experiment %q (use -list)\n", id)
				return 2
			}
		}
	}

	ran := 0
	for _, e := range all {
		if *sel != "all" && !want[e.ID] {
			continue
		}
		tb := e.Run()
		if *csv {
			fmt.Fprintf(stdout, "# %s — %s\n%s\n", e.ID, e.Desc, tb.CSV())
		} else {
			fmt.Fprintf(stdout, "%s\n", tb)
		}
		ran++
	}
	if ran == 0 {
		fmt.Fprintln(stderr, "rtexp: nothing selected")
		return 2
	}
	return 0
}

// runSweep executes a grid document end to end: expand, run every
// cell, write the merged BENCH document, and optionally gate it against
// a stored baseline.
func runSweep(gridPath, out, baseline string, threshold float64, stdout, stderr io.Writer) int {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	g, err := sweep.LoadGridFile(gridPath)
	if err != nil {
		fmt.Fprintf(stderr, "rtexp: sweep: %v\n", err)
		return 1
	}
	rep, err := g.Run(ctx, sweep.Options{Dir: filepath.Dir(gridPath), Progress: stderr})
	if err != nil {
		fmt.Fprintf(stderr, "rtexp: sweep: %v\n", err)
		return 1
	}
	w := stdout
	if out != "-" && out != "" {
		f, err := os.Create(out)
		if err != nil {
			fmt.Fprintf(stderr, "rtexp: sweep: %v\n", err)
			return 1
		}
		defer f.Close()
		w = f
	}
	if err := rep.WriteJSON(w); err != nil {
		fmt.Fprintf(stderr, "rtexp: sweep: %v\n", err)
		return 1
	}
	if baseline != "" {
		return gate(rep, baseline, threshold, stderr)
	}
	return 0
}

// gate diffs current against the stored baseline artifact and renders
// the shared delta lines; non-zero means at least one benchmark slowed
// down beyond the threshold (or the baseline was unreadable).
func gate(current *benchfmt.Report, baseline string, threshold float64, stderr io.Writer) int {
	prev, err := benchfmt.ParseFile(baseline)
	if err != nil {
		fmt.Fprintf(stderr, "rtexp: baseline: %v\n", err)
		return 1
	}
	regressed := benchfmt.FormatDeltas(stderr, benchfmt.Deltas(prev, current), threshold, "rtexp: delta")
	if regressed > 0 {
		fmt.Fprintf(stderr, "rtexp: FAILED: %d benchmark(s) regressed more than %.0f%% over %s\n",
			regressed, threshold, baseline)
		return 1
	}
	return 0
}

func knownID(all []exp.Experiment, id string) bool {
	for _, e := range all {
		if e.ID == id {
			return true
		}
	}
	return false
}
