package main

import (
	"flag"
	"fmt"
	"io"
)

// runAdmit is `rtexp admit`, an offline admission-control what-if tool:
// it replays a scenario document's whole timeline — static load,
// establish/establishAll/release/reconfigure events, churn streams —
// against admission control alone, and reports each event's decision
// plus a final system summary. No traffic is simulated and no virtual
// time passes. Rejections carry the rtether.AdmissionError diagnostics:
// the saturated link, its direction and the reason; an establishAll
// event is one all-or-nothing decision.
//
//	rtexp admit -scenario plant.json
//	rtexp admit -scenario plant.json -q -dump
func runAdmit(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rtexp admit", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		scen  = fs.String("scenario", "", "scenario document whose timeline is replayed (required)")
		quiet = fs.Bool("q", false, "suppress per-event lines, print only the summary")
		dump  = fs.Bool("dump", false, "emit the accepted channels as a JSON snapshot instead of the summary; star scenarios only")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	s, code := loadScenario("rtexp admit", *scen, stderr)
	if s == nil {
		return code
	}
	// Snapshots are a star feature; reject the combination before
	// replaying anything.
	if *dump && s.Fabric() {
		fmt.Fprintf(stderr, "rtexp admit: -dump needs a star scenario (snapshots are not supported on multi-switch networks yet)\n")
		return 2
	}
	res, err := s.Replay()
	if err != nil {
		fmt.Fprintf(stderr, "rtexp admit: %v\n", err)
		return 1
	}
	if !*quiet {
		fmt.Fprintf(stdout, "static load: %d accepted, %d rejected (optional)\n",
			len(res.Accepted), res.Rejected)
		for _, ev := range res.Events {
			fmt.Fprintln(stdout, ev)
		}
	}
	if *dump {
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
