// Scenariofile shows the declarative side of the library: a complete
// dynamic multi-hop experiment — three switches, deferred establishment,
// mid-run reconfiguration and a churn generator — loaded from an
// embedded JSON document instead of written as code. The scenario
// subsystem turns every workload idea into a data file: the same
// document replays byte-identically under cmd/rtsim -scenario, and
// cmd/rtadmit -scenario answers what admission alone would decide.
// docs/scenario-format.md is the schema reference.
//
//	go run ./examples/scenariofile
package main

import (
	_ "embed"
	"fmt"
	"log"
	"strings"

	"repro/internal/scenario"
)

//go:embed plant.json
var plantJSON string

func main() {
	scen, err := scenario.Load(strings.NewReader(plantJSON))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("scenario %q: %d switches, %d channels, %d events, %d churn generators\n",
		scen.Name, len(scen.Topology.Switches), len(scen.Channels), len(scen.Events), len(scen.Churn))

	// First ask admission control alone: which of the timeline's
	// decisions would go through? No traffic, no virtual time.
	replay, err := scen.Replay()
	if err != nil {
		log.Fatal(err)
	}
	accepted, rejected, skipped := replay.EventCounts()
	fmt.Printf("\nadmission replay: %d events — %d applied, %d rejected, %d skipped\n",
		len(replay.Events), accepted, rejected, skipped)

	// Then run the whole experiment: static load, background, timeline
	// playback and the hop-by-hop RT traffic simulation.
	res, err := scen.Run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nfull run: %d static channels, %d timeline events\n",
		len(res.Accepted), len(res.Events))
	for _, ev := range res.Events {
		fmt.Println("  ", ev)
	}
	rep := res.Report
	_, worst := rep.WorstDelay()
	fmt.Printf("\ndelivered %d RT frames, %d deadline misses, worst delay %d slots\n",
		rep.TotalDelivered(), rep.TotalMisses(), worst)
	if rep.TotalMisses() == 0 {
		fmt.Println("every admitted frame met its guarantee")
	}
}
