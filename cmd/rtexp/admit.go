package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/scenario"
	"repro/rtether"
)

// runAdmit is `rtexp admit`, an offline admission-control what-if tool:
// it reads RT channel requests (one per line: "src dst C P D"), plays
// them against a network's admission control under the selected
// deadline partitioning scheme, and reports each decision with its
// reason plus a final system summary. Rejections carry the
// rtether.AdmissionError diagnostics: the saturated link, its direction,
// and its utilization.
//
// With -batch the whole request set is admitted as one atomic decision
// through Network.EstablishAll: either every request is accepted or the
// batch is rejected with the first failure's diagnostics.
//
// With -scenario it replays a scenario file's whole timeline — static
// load, establish/release/reconfigure events, churn streams — against
// admission control alone: no traffic is simulated and no virtual time
// passes. The scenario's own topology and DPS apply; -dps is ignored.
//
//	echo "1 100 3 100 40" | rtexp admit -dps adps
//	rtexp admit -dps sdps -f requests.txt
//	rtexp admit -dps adps -batch -f provisioning.txt
//	rtexp admit -scenario plant.json -q
func runAdmit(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rtexp admit", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		dpsName = fs.String("dps", "sdps", "deadline partitioning scheme: sdps | adps")
		file    = fs.String("f", "-", "requests file ('-' = stdin)")
		quiet   = fs.Bool("q", false, "suppress per-request lines, print only the summary")
		dump    = fs.Bool("dump", false, "emit the accepted channels as a JSON snapshot instead of the summary")
		batch   = fs.Bool("batch", false, "admit all requests as one atomic batch (EstablishAll) instead of one by one")
		scen    = fs.String("scenario", "", "replay a JSON scenario timeline against admission control only (ignores -dps and request input)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *scen != "" {
		return replayScenario(*scen, *quiet, *dump, stdout, stderr)
	}

	dps, err := parseDPS(*dpsName)
	if err != nil {
		fmt.Fprintf(stderr, "rtexp admit: %v\n", err)
		return 2
	}

	in := stdin
	if *file != "-" {
		f, err := os.Open(*file)
		if err != nil {
			fmt.Fprintf(stderr, "rtexp admit: %v\n", err)
			return 1
		}
		defer f.Close()
		in = f
	}

	net := rtether.New(rtether.WithDPS(dps))
	known := make(map[rtether.NodeID]bool)
	ensure := func(id rtether.NodeID) {
		if !known[id] {
			known[id] = true
			net.MustAddNode(id)
		}
	}

	rejectLine := func(lineNo int, spec rtether.ChannelSpec, err error) {
		var ae *rtether.AdmissionError
		if errors.As(err, &ae) {
			fmt.Fprintf(stdout, "line %-4d REJECT %v: %s (%s) %s\n",
				lineNo, spec, ae.Link, ae.Dir, ae.Reason)
		} else {
			fmt.Fprintf(stdout, "line %-4d REJECT %v: %v\n", lineNo, spec, err)
		}
	}

	// Sequential mode decides (and prints) request by request as lines
	// arrive; batch mode collects the whole file for one EstablishAll.
	type request struct {
		lineNo int
		spec   rtether.ChannelSpec
	}
	var requests []request
	scanner := bufio.NewScanner(in)
	lineNo := 0
	for scanner.Scan() {
		lineNo++
		line := strings.TrimSpace(scanner.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		var src, dst uint16
		var c, p, d int64
		if _, err := fmt.Sscanf(line, "%d %d %d %d %d", &src, &dst, &c, &p, &d); err != nil {
			fmt.Fprintf(stderr, "rtexp admit: line %d: want 'src dst C P D': %v\n", lineNo, err)
			return 1
		}
		ensure(rtether.NodeID(src))
		ensure(rtether.NodeID(dst))
		spec := rtether.ChannelSpec{
			Src: rtether.NodeID(src), Dst: rtether.NodeID(dst), C: c, P: p, D: d,
		}
		if *batch {
			requests = append(requests, request{lineNo: lineNo, spec: spec})
			continue
		}
		ch, err := net.Establish(spec)
		if *quiet {
			continue
		}
		if err != nil {
			rejectLine(lineNo, spec, err)
			continue
		}
		b := ch.Budgets()
		fmt.Fprintf(stdout, "line %-4d ACCEPT %v as RT#%d (d_up=%d d_down=%d)\n",
			lineNo, spec, ch.ID(), b[0], b[1])
	}
	if err := scanner.Err(); err != nil {
		fmt.Fprintf(stderr, "rtexp admit: read: %v\n", err)
		return 1
	}

	if *batch {
		specs := make([]rtether.ChannelSpec, len(requests))
		for i, r := range requests {
			specs[i] = r.spec
		}
		chs, err := net.EstablishAll(specs)
		if err != nil {
			if !*quiet {
				fmt.Fprintf(stdout, "BATCH REJECT (%d requests): all-or-nothing admission failed\n", len(specs))
				var ae *rtether.AdmissionError
				if errors.As(err, &ae) {
					// Recover the input line of the rejected spec for the
					// usual line-numbered diagnostic.
					lineNo := 0
					for _, r := range requests {
						if r.spec == ae.Spec {
							lineNo = r.lineNo
							break
						}
					}
					rejectLine(lineNo, ae.Spec, err)
				} else {
					fmt.Fprintf(stdout, "reason: %v\n", err)
				}
			}
		} else if !*quiet {
			for i, ch := range chs {
				b := ch.Budgets()
				fmt.Fprintf(stdout, "line %-4d ACCEPT %v as RT#%d (d_up=%d d_down=%d)\n",
					requests[i].lineNo, requests[i].spec, ch.ID(), b[0], b[len(b)-1])
			}
		}
	}

	if *dump {
		if err := net.WriteSnapshot(stdout); err != nil {
			fmt.Fprintf(stderr, "rtexp admit: snapshot: %v\n", err)
			return 1
		}
		return 0
	}

	st := net.AdmissionStats()
	fmt.Fprintf(stdout, "\nsummary (%s): %d requests, %d accepted, %d rejected "+
		"(%d invalid, %d utilization, %d demand), %d feasibility tests run\n",
		dps.Name(), st.Requests, st.Accepted,
		st.Requests-st.Accepted, st.RejectedInvalid,
		st.RejectedUtilization, st.RejectedDemand, st.LinksChecked)
	fmt.Fprintf(stdout, "mean link utilization: %.4f over %d loaded links\n",
		st.MeanLinkUtilization, st.LoadedLinks)
	return 0
}

// replayScenario plays a scenario file's timeline against the admission
// kernel: per-event decisions, then the usual summary (or -dump
// snapshot). Traffic, background flows and virtual time are skipped —
// only the establish/release/reconfigure decisions run.
func replayScenario(path string, quiet, dump bool, stdout, stderr io.Writer) int {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintf(stderr, "rtexp admit: %v\n", err)
		return 1
	}
	defer f.Close()
	s, err := scenario.Load(f)
	if err != nil {
		fmt.Fprintf(stderr, "rtexp admit: %v\n", err)
		return 1
	}
	// Snapshots are a star feature; reject the combination before
	// replaying anything.
	if dump && s.Fabric() {
		fmt.Fprintf(stderr, "rtexp admit: -dump needs a star scenario (snapshots are not supported on multi-switch networks yet)\n")
		return 2
	}
	res, err := s.Replay()
	if err != nil {
		fmt.Fprintf(stderr, "rtexp admit: %v\n", err)
		return 1
	}
	if !quiet {
		fmt.Fprintf(stdout, "static load: %d accepted, %d rejected (optional)\n",
			len(res.Accepted), res.Rejected)
		for _, ev := range res.Events {
			fmt.Fprintln(stdout, ev)
		}
	}
	if dump {
		if err := res.Network.WriteSnapshot(stdout); err != nil {
			fmt.Fprintf(stderr, "rtexp admit: snapshot: %v\n", err)
			return 1
		}
		return 0
	}
	st := res.Network.AdmissionStats()
	fmt.Fprintf(stdout, "\nsummary (scenario %q): %d requests, %d accepted, %d rejected "+
		"(%d invalid, %d utilization, %d demand), %d feasibility tests run\n",
		s.Name, st.Requests, st.Accepted,
		st.Requests-st.Accepted, st.RejectedInvalid,
		st.RejectedUtilization, st.RejectedDemand, st.LinksChecked)
	fmt.Fprintf(stdout, "mean link utilization: %.4f over %d loaded links\n",
		st.MeanLinkUtilization, st.LoadedLinks)
	return 0
}

func parseDPS(name string) (rtether.DPS, error) {
	switch name {
	case "sdps":
		return rtether.SDPS(), nil
	case "adps":
		return rtether.ADPS(), nil
	default:
		return nil, fmt.Errorf("unknown -dps %q (want sdps or adps)", name)
	}
}
