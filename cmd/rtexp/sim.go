package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"

	"repro/internal/scenario"
	"repro/internal/stats"
	"repro/internal/traffic"
	"repro/rtether"
)

// runSim is `rtexp sim`: one configurable simulation of the
// switched-Ethernet real-time network and a measurement summary —
// acceptance, per-channel worst-case delays against their guarantees,
// deadline misses, and best-effort throughput.
//
// With -scenario the workload comes from a declarative JSON file
// (docs/scenario-format.md) instead of the flags: static channels, a
// multi-switch topology, an event timeline and churn generators all play
// back deterministically, per-event admission outcomes appear in the
// report, and -snapshot writes the final channel table as JSON (star
// scenarios only).
//
//	rtexp sim -masters 10 -slaves 50 -requests 200 -dps adps -slots 5000
//	rtexp sim -dps sdps -bg-rate 0.2 -shaping=false -trace 20
//	rtexp sim -scenario plant.json -events 0
func runSim(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rtexp sim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		masters  = fs.Int("masters", 10, "number of master nodes")
		slaves   = fs.Int("slaves", 50, "number of slave nodes")
		requests = fs.Int("requests", 200, "channel requests (round-robin master→slave)")
		dpsName  = fs.String("dps", "adps", "deadline partitioning scheme: sdps | adps")
		c        = fs.Int64("c", 3, "channel capacity C (frames/period)")
		p        = fs.Int64("p", 100, "channel period P (slots)")
		d        = fs.Int64("d", 40, "channel deadline d (slots)")
		slots    = fs.Int64("slots", 5000, "measurement horizon after load (slots)")
		shaping  = fs.Bool("shaping", true, "enable the switch release-guard shaper")
		bgRate   = fs.Float64("bg-rate", 0, "background non-RT frames/slot per master")
		offsets  = fs.Int64("max-offset", 0, "max random release offset (0 = synchronous)")
		prop     = fs.Int64("propagation", 0, "per-hop propagation delay (slots)")
		seed     = fs.Int64("seed", 1, "random seed for offsets/background")
		linkMbps = fs.Int64("mbps", 100, "link rate for real-time conversion of results")
		traceN   = fs.Int("trace", 0, "print the last N trace events (0 = off)")
		scenFile = fs.String("scenario", "", "run a JSON scenario file instead of the flag-driven workload")
		snapPath = fs.String("snapshot", "", "with -scenario: write the final channel snapshot as JSON to this file ('-' = stdout); star scenarios only")
		eventCap = fs.Int("events", 25, "with -scenario: print at most N per-event outcome lines (0 = all)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *scenFile != "" {
		return runScenario(*scenFile, *snapPath, *eventCap, stdout, stderr)
	}

	dps, err := parseDPS(*dpsName)
	if err != nil {
		fmt.Fprintf(stderr, "rtexp sim: %v\n", err)
		return 2
	}

	layout := traffic.MasterSlaveLayout{Masters: *masters, Slaves: *slaves, SlaveBase: 100}
	params := rtether.ChannelSpec{C: *c, P: *p, D: *d}
	rng := rand.New(rand.NewSource(*seed))

	net := rtether.New(
		rtether.WithDPS(dps),
		rtether.WithShaping(*shaping),
		rtether.WithNonRTQueueCap(256),
		rtether.WithPropagation(*prop),
	)
	var tracer *rtether.RingTracer
	if *traceN > 0 {
		tracer = rtether.NewRingTracer(*traceN)
		net.SetTracer(tracer)
	}
	for _, id := range layout.Nodes() {
		net.MustAddNode(id)
	}

	var accepted []*rtether.Channel
	rejected := 0
	for _, spec := range layout.Requests(*requests, params) {
		ch, err := net.Establish(spec)
		if err != nil {
			rejected++
			continue
		}
		accepted = append(accepted, ch)
	}
	for _, ch := range accepted {
		var off int64
		if *offsets > 0 {
			off = rng.Int63n(*offsets + 1)
		}
		if err := ch.Start(off); err != nil {
			fmt.Fprintf(stderr, "rtexp sim: %v\n", err)
			return 1
		}
	}

	start := net.Now()
	bgSent := 0
	if *bgRate > 0 {
		for m := 0; m < layout.Masters; m++ {
			src, dst := layout.Master(m), layout.Slave(m)
			for _, at := range traffic.PoissonArrivals(rng, *bgRate, *slots) {
				src, dst := src, dst
				net.Schedule(start+at, func() { net.SendBestEffort(src, dst, []byte("bg")) })
				bgSent++
			}
		}
	}
	net.RunUntil(start + *slots)
	rep := net.Report()

	fmt.Fprintf(stdout, "rtsim: %d masters, %d slaves, %s, %d requested\n",
		*masters, *slaves, dps.Name(), *requests)
	fmt.Fprintf(stdout, "  slot = %d ns at %d Mbit/s\n", rtether.SlotNanos(*linkMbps), *linkMbps)
	fmt.Fprintf(stdout, "  accepted %d, rejected %d\n", len(accepted), rejected)

	tb := stats.NewTable("per-channel summary (worst 10 by max delay)",
		"channel", "delivered", "misses", "min", "mean", "p99", "max", "guarantee")
	type row struct {
		id    rtether.ChannelID
		m     *rtether.ChannelMetrics
		bound int64
	}
	var rows []row
	for _, ch := range accepted {
		m := rep.Channels[ch.ID()]
		if m == nil {
			continue
		}
		rows = append(rows, row{ch.ID(), m, ch.GuaranteedDelay()})
	}
	for i := 0; i < len(rows); i++ {
		for j := i + 1; j < len(rows); j++ {
			if rows[j].m.Delays.Max() > rows[i].m.Delays.Max() {
				rows[i], rows[j] = rows[j], rows[i]
			}
		}
	}
	for i, r := range rows {
		if i >= 10 {
			break
		}
		tb.AddRowf(r.id, r.m.Delivered, r.m.Misses,
			r.m.Delays.Min(), r.m.Delays.Mean(), r.m.Delays.Percentile(99),
			r.m.Delays.Max(), r.bound)
	}
	fmt.Fprintln(stdout, tb)

	_, worst := rep.WorstDelay()
	fmt.Fprintf(stdout, "  RT: delivered %d frames, %d deadline misses, worst delay %d slots (%.1f µs)\n",
		rep.TotalDelivered(), rep.TotalMisses(), worst,
		float64(worst*rtether.SlotNanos(*linkMbps))/1000)
	if bgSent > 0 || rep.NonRTDelivered > 0 {
		fmt.Fprintf(stdout, "  non-RT: sent %d, delivered %d, dropped %d, mean delay %.1f slots\n",
			bgSent, rep.NonRTDelivered, rep.NonRTDrops, rep.NonRTDelay.Mean())
	}
	if tracer != nil {
		fmt.Fprintf(stdout, "  trace (last %d of %d events):\n", len(tracer.Events()), tracer.Total())
		for _, e := range tracer.Events() {
			fmt.Fprintf(stdout, "    %v\n", e)
		}
	}
	if rep.TotalMisses() > 0 {
		fmt.Fprintln(stdout, "  VERDICT: GUARANTEE VIOLATED")
		return 1
	}
	fmt.Fprintln(stdout, "  VERDICT: all guarantees held")
	return 0
}

// runScenario executes a declarative JSON scenario file: static load,
// event-timeline playback with per-event admission outcomes, measurement
// summary, and optionally a final channel snapshot.
func runScenario(path, snapPath string, eventCap int, stdout, stderr io.Writer) int {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintf(stderr, "rtexp sim: %v\n", err)
		return 1
	}
	defer f.Close()
	scen, err := scenario.Load(f)
	if err != nil {
		fmt.Fprintf(stderr, "rtexp sim: %v\n", err)
		return 1
	}
	// Snapshots are a star feature; fail before running the whole
	// simulation only to disappoint at the end.
	if snapPath != "" && scen.Fabric() {
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
	printEventOutcomes(stdout, res, eventCap)
	fmt.Fprintf(stdout, "  RT: delivered %d frames, %d deadline misses, worst delay %d slots\n",
		rep.TotalDelivered(), rep.TotalMisses(), worst)
	if res.BgSent > 0 {
		fmt.Fprintf(stdout, "  non-RT: sent %d, delivered %d, dropped %d, mean delay %.1f slots\n",
			res.BgSent, rep.NonRTDelivered, rep.NonRTDrops, rep.NonRTDelay.Mean())
	}
	if snapPath != "" {
		if err := writeSnapshot(res, snapPath, stdout); err != nil {
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
