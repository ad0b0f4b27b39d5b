package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/scenario"
)

// runSim is `rtexp sim`: one simulation of the switched-Ethernet
// real-time network, its workload declared by a scenario document
// (docs/scenario-format.md) — static channels, a star or multi-switch
// topology, background flows, an event timeline and churn generators,
// all played back deterministically — and a measurement summary:
// acceptance, per-event admission outcomes, deadline misses, worst
// delay and best-effort throughput. -snapshot writes the final channel
// table as JSON (star scenarios only).
//
//	rtexp sim -scenario plant.json
//	rtexp sim -scenario plant.json -events 0 -snapshot out.json
func runSim(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rtexp sim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		scenFile = fs.String("scenario", "", "scenario document to run (required)")
		snapPath = fs.String("snapshot", "", "write the final channel snapshot as JSON to this file ('-' = stdout); star scenarios only")
		eventCap = fs.Int("events", 25, "print at most N per-event outcome lines (0 = all)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	scen, code := loadScenario("rtexp sim", *scenFile, stderr)
	if scen == nil {
		return code
	}
	// Snapshots are a star feature; fail before running the whole
	// simulation only to disappoint at the end.
	if *snapPath != "" && scen.Fabric() {
		fmt.Fprintf(stderr, "rtexp sim: -snapshot needs a star scenario (snapshots are not supported on multi-switch networks yet)\n")
		return 2
	}
	res, err := scen.Run()
	if err != nil {
		fmt.Fprintf(stderr, "rtexp sim: %v\n", err)
		return 1
	}
	rep := res.Report
	_, worst := rep.WorstDelay()
	fmt.Fprintf(stdout, "scenario %q: %d channels accepted, %d rejected (optional)\n",
		scen.Name, len(res.Accepted), res.Rejected)
	if t := scen.Topology; t != nil {
		fmt.Fprintf(stdout, "  topology: %d switches, %d trunks, %d nodes\n",
			len(t.Switches), len(t.Trunks), len(t.Attachments))
	}
	printEventOutcomes(stdout, res, *eventCap)
	fmt.Fprintf(stdout, "  RT: delivered %d frames, %d deadline misses, worst delay %d slots\n",
		rep.TotalDelivered(), rep.TotalMisses(), worst)
	if res.BgSent > 0 {
		fmt.Fprintf(stdout, "  non-RT: sent %d, delivered %d, dropped %d, mean delay %.1f slots\n",
			res.BgSent, rep.NonRTDelivered, rep.NonRTDrops, rep.NonRTDelay.Mean())
	}
	if *snapPath != "" {
		if err := writeSnapshot(res, *snapPath, stdout); err != nil {
			fmt.Fprintf(stderr, "rtexp sim: snapshot: %v\n", err)
			return 1
		}
	}
	if rep.TotalMisses() > 0 {
		fmt.Fprintln(stdout, "  VERDICT: GUARANTEE VIOLATED")
		return 1
	}
	fmt.Fprintln(stdout, "  VERDICT: all guarantees held")
	return 0
}

// loadScenario loads the -scenario document of the subcommand cmd and
// returns it with exit code 0. Without one it returns the usage exit
// code 2; for a document that does not load, 1.
func loadScenario(cmd, path string, stderr io.Writer) (*scenario.Scenario, int) {
	if path == "" {
		fmt.Fprintf(stderr, "%s: -scenario is required: the workload is a scenario document (docs/scenario-format.md)\n", cmd)
		return nil, 2
	}
	s, err := scenario.LoadFile(path)
	if err != nil {
		fmt.Fprintf(stderr, "%s: %v\n", cmd, err)
		return nil, 1
	}
	return s, 0
}

// printEventOutcomes lists the timeline playback results, capped at
// eventCap lines (0 = unlimited) with a deterministic tail summary.
func printEventOutcomes(w io.Writer, res *scenario.Result, eventCap int) {
	if len(res.Events) == 0 {
		return
	}
	accepted, rejected, skipped := res.EventCounts()
	fmt.Fprintf(w, "  events: %d played — %d applied, %d rejected (tolerated), %d skipped\n",
		len(res.Events), accepted, rejected, skipped)
	for i, ev := range res.Events {
		if eventCap > 0 && i >= eventCap {
			fmt.Fprintf(w, "    … %d more events (rerun with -events 0 for all)\n", len(res.Events)-i)
			break
		}
		fmt.Fprintf(w, "    %s\n", ev)
	}
}

// writeSnapshot serializes the run's final channel table ('-' = stdout).
func writeSnapshot(res *scenario.Result, path string, stdout io.Writer) error {
	if path == "-" {
		return res.Network.WriteSnapshot(stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := res.Network.WriteSnapshot(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
