package scenario

import (
	"encoding/json"
	"fmt"

	"repro/rtether"
)

// Clone returns an independent deep copy of the document. The sweep
// orchestrator (internal/sweep) derives one variant per grid cell —
// overriding the scheme, churn rates, failure policy or seed — without
// mutating the loaded base scenario; the copy still needs Validate (or
// any runner, which validates implicitly) after its overrides land.
func (s *Scenario) Clone() *Scenario {
	// A Scenario is plain data (its own JSON document); the round trip
	// cannot fail and copies every nested slice.
	b, err := json.Marshal(s)
	if err != nil {
		panic(fmt.Sprintf("scenario: clone marshal: %v", err))
	}
	var out Scenario
	if err := json.Unmarshal(b, &out); err != nil {
		panic(fmt.Sprintf("scenario: clone unmarshal: %v", err))
	}
	return &out
}

// BuildNetwork validates the document and constructs its configured —
// but unloaded — network: the layout (nodes or topology section), the
// partitioning scheme, discipline, shaping and propagation. extra options
// apply on top of the document's. No channel is established and no
// timeline event plays; this is how cmd/rtetherd hosts a
// scenario-described topology and lets clients drive the admission plane
// over the wire instead.
//
// The int parameter is ignored; it stays only because the benchmark
// harness still passes 0 (ROADMAP item 13 removes it).
func (s *Scenario) BuildNetwork(_ int, extra ...rtether.Option) (*rtether.Network, error) {
	if _, err := s.compile(); err != nil {
		return nil, err
	}
	return s.build(extra...)
}

// WorkItem is one flattened admission operation of a scenario: an
// establish (with the full spec) or a release of an earlier establish,
// identified by the channel's scenario name. `rtexp load` replays these
// against a remote daemon; an `rtexp sweep` cell with batch "each"
// replays them in-process.
type WorkItem struct {
	// At is the scenario slot the operation was scheduled for. Load
	// generators are free to ignore it and replay at full speed; the
	// relative order of items sharing a Name must be preserved.
	At int64
	// Release marks a release of the named channel; otherwise the item
	// is an establish of Spec.
	Release bool
	// Name is the scenario channel name. It may be empty for statically
	// declared unnamed channels, which are never released later.
	Name string
	// Spec is the requested channel (establish items).
	Spec rtether.ChannelSpec
	// Sinks marks a multicast establish: one distribution tree from
	// Spec.Src over every sink, requested atomically (Spec.Dst is 0).
	Sinks []rtether.NodeID
	// Optional marks establishes whose rejection the scenario
	// tolerates (churn arrivals, optional channels).
	Optional bool
}

// Workload validates the document, synthesizes its churn generators and
// flattens the result into a replayable establish/release stream: first
// the static channel population in declaration order, then every
// timeline establish, establishAll (one item per batch member) and
// release in deterministic playback order. Every other event kind —
// reconfigure, publish, setBackground and the failure events linkDown,
// switchDown and repair — is left out and counted in skipped; Replay
// plays the whole timeline.
func (s *Scenario) Workload() (items []WorkItem, skipped int, err error) {
	tl, err := s.compile()
	if err != nil {
		return nil, 0, err
	}
	for _, ch := range s.Channels {
		if ch.Name != "" && tl.deferred[ch.Name] {
			continue
		}
		items = append(items, WorkItem{
			Name: ch.Name, Spec: ch.spec(), Sinks: ch.mspec().Sinks, Optional: ch.Optional,
		})
	}
	for _, ev := range tl.events {
		switch ev.kind {
		case KindEstablish, KindEstablishAll:
			for _, name := range ev.names {
				def := tl.defs[name]
				items = append(items, WorkItem{
					At: ev.at, Name: name,
					Spec:     def.spec(),
					Sinks:    def.mspec().Sinks,
					Optional: ev.optional || def.Optional,
				})
			}
		case KindRelease:
			items = append(items, WorkItem{At: ev.at, Release: true, Name: ev.names[0]})
		default:
			skipped++
		}
	}
	return items, skipped, nil
}
