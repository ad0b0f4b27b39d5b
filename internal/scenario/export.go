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
