package scenario

import "repro/rtether"

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
