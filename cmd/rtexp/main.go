// Command rtexp is the experiment front-end of the repository. Its
// subcommands:
//
//	rtexp paper   regenerate the paper's evaluation tables (the default)
//	rtexp admit   replay a scenario's timeline against admission control alone
//	rtexp sim     simulate a scenario and print a measurement summary
//	rtexp load    replay a scenario's workload against a running rtetherd
//	rtexp sweep   expand a grid document and run every cell in-process
//
// Every workload is a scenario document (docs/scenario-format.md):
// admit, sim and load take it with -scenario, and a sweep grid names
// the documents its cells run.
//
// A bare rtexp, or one whose first argument is a flag, runs paper:
//
//	rtexp                      # all experiments, aligned tables
//	rtexp -exp fig18.5         # just the headline figure
//	rtexp -exp fig18.5,dsweep -csv
//	rtexp -list                # enumerate experiment IDs
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

	"repro/internal/exp"
	"repro/internal/sweep"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run dispatches on the subcommand and returns the exit code.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	name := "paper"
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		name, args = args[0], args[1:]
	}
	switch name {
	case "paper":
		return runPaper(args, stdout, stderr)
	case "admit":
		return runAdmit(args, stdout, stderr)
	case "sim":
		return runSim(args, stdout, stderr)
	case "load":
		return runLoad(ctx, args, stdout, stderr)
	case "sweep":
		return runSweep(ctx, args, stdout, stderr)
	}
	fmt.Fprintf(stderr, "rtexp: unknown subcommand %q (want paper, admit, sim, load or sweep)\n", name)
	return 2
}

// runPaper is `rtexp paper`: every table and figure in the experiment
// index (-list). With no flags it runs everything; -exp selects a
// comma-separated subset; -csv switches the output to CSV.
func runPaper(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rtexp paper", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		sel  = fs.String("exp", "all", "comma-separated experiment IDs, or 'all'")
		csv  = fs.Bool("csv", false, "emit CSV instead of aligned tables")
		list = fs.Bool("list", false, "list experiment IDs and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
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

func knownID(all []exp.Experiment, id string) bool {
	for _, e := range all {
		if e.ID == id {
			return true
		}
	}
	return false
}

// runSweep is `rtexp sweep [-out file] grid.json`: it expands the grid
// document (docs/experiments.md) into its cells, runs every cell
// in-process and writes the merged JSON document, one entry per cell.
func runSweep(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rtexp sweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	out := fs.String("out", "-", "output file ('-' = stdout)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "rtexp sweep: want one grid document")
		return 2
	}
	gridPath := fs.Arg(0)
	g, err := sweep.LoadGridFile(gridPath)
	if err != nil {
		fmt.Fprintf(stderr, "rtexp sweep: %v\n", err)
		return 1
	}
	rep, err := g.Run(ctx, sweep.Options{Dir: filepath.Dir(gridPath), Progress: stderr})
	if err != nil {
		fmt.Fprintf(stderr, "rtexp sweep: %v\n", err)
		return 1
	}
	w := stdout
	if *out != "-" && *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(stderr, "rtexp sweep: %v\n", err)
			return 1
		}
		defer f.Close()
		w = f
	}
	if err := rep.WriteJSON(w); err != nil {
		fmt.Fprintf(stderr, "rtexp sweep: %v\n", err)
		return 1
	}
	return 0
}
