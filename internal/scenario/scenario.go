// Package scenario loads declarative experiment descriptions from JSON
// and turns them into configured, loaded rtether networks. It exists so
// that experiments can be shared as data: `rtexp sim -scenario
// plant.json` runs the exact same deterministic simulation everywhere,
// and `rtexp admit -scenario plant.json` replays the same timeline
// against the admission kernel alone.
//
// A scenario file describes
//
//   - the physical layout: either a flat "nodes" list (the paper's
//     single-switch star) or a "topology" section with switches, trunks
//     and node attachments (a routed multi-switch fabric),
//   - a static channel population established before time starts,
//   - optional best-effort background flows (star networks),
//   - an "events" timeline — establish, establishAll, release,
//     reconfigure and setBackground actions applied at given slots
//     mid-simulation, and
//   - "churn" generators — seeded arrival/holding-time processes that
//     synthesize establish/release event streams, for sustained
//     add/remove workloads at 10k+ channel scale.
//
// A minimal static scenario:
//
//	{
//	  "name": "packaging line",
//	  "dps": "adps",
//	  "slots": 5000,
//	  "nodes": [1, 2, 3],
//	  "channels": [
//	    {"src": 1, "dst": 2, "c": 3, "p": 100, "d": 40},
//	    {"src": 1, "dst": 3, "c": 2, "p": 50,  "d": 20, "offset": 7}
//	  ],
//	  "background": [
//	    {"src": 1, "dst": 3, "rate": 0.1}
//	  ]
//	}
//
// See docs/scenario-format.md for the complete schema reference,
// including a runnable dynamic multi-hop example.
package scenario

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/traffic"
	"repro/rtether"
)

// ChannelDef is one requested RT channel. Named channels can be referred
// to by timeline events; a channel whose first referencing event is an
// establishment is deferred to that event, every other channel is
// established before the measurement horizon starts.
type ChannelDef struct {
	// Name makes the channel addressable from the events timeline. Names
	// must be unique and must not contain '#' (reserved for channels
	// synthesized by churn generators).
	Name string `json:"name,omitempty"`
	Src  uint16 `json:"src"`
	Dst  uint16 `json:"dst"`
	// Sinks turns the channel into a multicast channel: one distribution
	// tree from Src to every listed sink, admitted atomically (dst must
	// be omitted). Multicast channels model publisher-driven topics:
	// their traffic source idles until a publish event triggers a burst.
	Sinks  []uint16 `json:"sinks,omitempty"`
	C      int64    `json:"c"`
	P      int64    `json:"p"`
	D      int64    `json:"d"`
	Offset int64    `json:"offset,omitempty"` // release phase, slots
	// Priority orders channels for failure recovery: a preempting
	// failure policy may evict strictly lower-priority channels to
	// re-home ones displaced by a linkDown/switchDown event. Higher is
	// more important; 0 (the default) preserves the paper's
	// priority-free behavior. Never consulted on a healthy network.
	Priority int32 `json:"priority,omitempty"`
	// Optional tolerates rejection: by default a rejected channel fails
	// the scenario (declared channels are presumed load-bearing).
	Optional bool `json:"optional,omitempty"`
}

// spec returns the channel's admission request.
func (c ChannelDef) spec() core.ChannelSpec {
	return core.ChannelSpec{
		Src: core.NodeID(c.Src), Dst: core.NodeID(c.Dst),
		C: c.C, P: c.P, D: c.D, Priority: c.Priority,
	}
}

// multicast reports whether the definition declares a sink set.
func (c ChannelDef) multicast() bool { return len(c.Sinks) > 0 }

// mspec returns the multicast admission request of a sinks-bearing
// definition.
func (c ChannelDef) mspec() core.MulticastSpec {
	sinks := make([]core.NodeID, len(c.Sinks))
	for i, s := range c.Sinks {
		sinks[i] = core.NodeID(s)
	}
	return core.MulticastSpec{Src: core.NodeID(c.Src), Sinks: sinks, C: c.C, P: c.P, D: c.D, Priority: c.Priority}
}

// BackgroundDef is one Poisson best-effort flow (star networks only; the
// fabric simulator carries RT traffic exclusively). Its rate can be
// changed mid-run by a setBackground event.
type BackgroundDef struct {
	Src  uint16  `json:"src"`
	Dst  uint16  `json:"dst"`
	Rate float64 `json:"rate"` // frames per slot
}

// Scenario is the root document.
type Scenario struct {
	Name          string `json:"name"`
	DPS           string `json:"dps,omitempty"`        // "sdps" (default) | "adps"; maps to H-SDPS/H-ADPS on fabrics
	Discipline    string `json:"discipline,omitempty"` // "edf" (default) | "fifo" | "dm"; star only
	Shaping       *bool  `json:"shaping,omitempty"`    // default true
	NonRTQueueCap int    `json:"nonRTQueueCap,omitempty"`
	Propagation   int64  `json:"propagation,omitempty"`
	Slots         int64  `json:"slots"`
	Seed          int64  `json:"seed,omitempty"`

	// FailurePolicy picks the network's degradation ladder for channels
	// displaced by linkDown/switchDown events that no longer fit:
	// "reject" (default) drops them, "degrade" retries each with a
	// relaxed deadline, "preempt" additionally evicts strictly
	// lower-priority channels to make room.
	FailurePolicy string `json:"failurePolicy,omitempty"`

	// Exactly one of Nodes and Topology describes the layout: a flat node
	// list is the paper's single-switch star, a topology section routes
	// channels across a fabric of switches.
	Nodes    []uint16     `json:"nodes,omitempty"`
	Topology *TopologyDef `json:"topology,omitempty"`

	Channels   []ChannelDef    `json:"channels"`
	Background []BackgroundDef `json:"background,omitempty"`
	// BackgroundTrace names a trace file (internal/traffic CSV or ndjson
	// format) whose timestamped arrivals are replayed as best-effort
	// frames on top of any declared Poisson flows — recorded load instead
	// of (or alongside) synthetic load. Star networks only, like the
	// background section. The path is resolved relative to the process
	// working directory; events at or past the scenario horizon are
	// dropped.
	BackgroundTrace string     `json:"backgroundTrace,omitempty"`
	Events          []EventDef `json:"events,omitempty"`
	Churn           []ChurnDef `json:"churn,omitempty"`
}

// Load parses and validates a scenario document.
func Load(r io.Reader) (*Scenario, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Scenario
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("scenario: parse: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Validate checks the document for internal consistency: layout, channel
// specs, background flows, the events timeline (kinds, references, and
// the establish/release state machine) and the churn generators.
func (s *Scenario) Validate() error {
	_, err := s.compile()
	return err
}

// compile validates the document and returns its compiled timeline —
// validation and churn synthesis share the work, so runners pay for it
// once per execution.
func (s *Scenario) compile() (*timeline, error) {
	if s.Slots <= 0 {
		return nil, fmt.Errorf("scenario: slots must be positive, got %d", s.Slots)
	}
	nodeSet, err := s.nodeSet()
	if err != nil {
		return nil, err
	}
	if _, err := s.dps(); err != nil {
		return nil, err
	}
	if _, err := s.discipline(); err != nil {
		return nil, err
	}
	if _, err := s.failurePolicy(); err != nil {
		return nil, err
	}
	if s.Fabric() {
		if s.Discipline != "" && strings.ToLower(s.Discipline) != "edf" {
			return nil, fmt.Errorf("scenario: discipline %q: multi-switch topologies schedule EDF only", s.Discipline)
		}
		if s.NonRTQueueCap != 0 {
			return nil, fmt.Errorf("scenario: nonRTQueueCap: multi-switch topologies carry RT traffic only")
		}
		if len(s.Background) > 0 {
			return nil, fmt.Errorf("scenario: background flows need a star network (multi-switch topologies carry RT traffic only)")
		}
		if s.BackgroundTrace != "" {
			return nil, fmt.Errorf("scenario: backgroundTrace needs a star network (multi-switch topologies carry RT traffic only)")
		}
	}
	names := make(map[string]bool, len(s.Channels))
	for i, ch := range s.Channels {
		if ch.multicast() {
			if ch.Dst != 0 {
				return nil, fmt.Errorf("scenario: channel %d: dst and sinks are mutually exclusive", i)
			}
			if !nodeSet[ch.Src] {
				return nil, fmt.Errorf("scenario: channel %d references undeclared node", i)
			}
			for _, sink := range ch.Sinks {
				if !nodeSet[sink] {
					return nil, fmt.Errorf("scenario: channel %d: undeclared sink %d", i, sink)
				}
			}
			if err := ch.mspec().Validate(); err != nil {
				return nil, fmt.Errorf("scenario: channel %d: %w", i, err)
			}
		} else {
			if !nodeSet[ch.Src] || !nodeSet[ch.Dst] {
				return nil, fmt.Errorf("scenario: channel %d references undeclared node", i)
			}
			if err := ch.spec().Validate(); err != nil {
				return nil, fmt.Errorf("scenario: channel %d: %w", i, err)
			}
		}
		if ch.Offset < 0 {
			return nil, fmt.Errorf("scenario: channel %d: negative offset", i)
		}
		if ch.Name != "" {
			if strings.Contains(ch.Name, "#") {
				return nil, fmt.Errorf("scenario: channel %d: name %q contains '#' (reserved for churn channels)", i, ch.Name)
			}
			if names[ch.Name] {
				return nil, fmt.Errorf("scenario: duplicate channel name %q", ch.Name)
			}
			names[ch.Name] = true
		}
	}
	for i, bg := range s.Background {
		if !nodeSet[bg.Src] || !nodeSet[bg.Dst] {
			return nil, fmt.Errorf("scenario: background flow %d references undeclared node", i)
		}
		if bg.Rate <= 0 {
			return nil, fmt.Errorf("scenario: background flow %d: rate must be positive", i)
		}
	}
	var trace *traffic.Trace
	if s.BackgroundTrace != "" {
		tr, err := traffic.ReadTraceFile(s.BackgroundTrace)
		if err != nil {
			return nil, fmt.Errorf("scenario: backgroundTrace: %w", err)
		}
		for i, ev := range tr.Events {
			if !nodeSet[ev.Src] || !nodeSet[ev.Dst] {
				return nil, fmt.Errorf("scenario: backgroundTrace: event %d (slot %d) references undeclared node (%d→%d)", i, ev.At, ev.Src, ev.Dst)
			}
		}
		trace = tr
	}
	if err := s.validateEvents(names, nodeSet); err != nil {
		return nil, err
	}
	if err := s.validateChurn(nodeSet); err != nil {
		return nil, err
	}
	// The state machine needs the full synthesized timeline (declared
	// events and churn streams interleave on the same channels table).
	tl, err := s.timeline()
	if err != nil {
		return nil, err
	}
	tl.trace = trace
	return tl, nil
}

// Fabric reports whether the scenario runs on a routed multi-switch
// topology rather than the degenerate single-switch star — and is
// therefore subject to the fabric backend's limits: RT traffic only,
// EDF only, and no channel snapshots.
func (s *Scenario) Fabric() bool {
	return s.Topology != nil && len(s.Topology.Switches) > 1
}

// nodeSet collects the declared end-nodes from whichever layout section
// is present, validating the layout along the way.
func (s *Scenario) nodeSet() (map[uint16]bool, error) {
	if s.Topology != nil {
		if len(s.Nodes) > 0 {
			return nil, fmt.Errorf("scenario: nodes and topology are mutually exclusive (attach nodes in the topology section)")
		}
		return s.Topology.validate()
	}
	if len(s.Nodes) == 0 {
		return nil, fmt.Errorf("scenario: no nodes")
	}
	set := make(map[uint16]bool, len(s.Nodes))
	for _, n := range s.Nodes {
		if set[n] {
			return nil, fmt.Errorf("scenario: duplicate node %d", n)
		}
		set[n] = true
	}
	return set, nil
}

func (s *Scenario) dps() (core.DPS, error) {
	switch strings.ToLower(s.DPS) {
	case "", "sdps":
		return core.SDPS{}, nil
	case "adps":
		return core.ADPS{}, nil
	default:
		return nil, fmt.Errorf("scenario: unknown dps %q", s.DPS)
	}
}

func (s *Scenario) discipline() (sched.Discipline, error) {
	switch strings.ToLower(s.Discipline) {
	case "", "edf":
		return sched.DisciplineEDF, nil
	case "fifo":
		return sched.DisciplineFIFO, nil
	case "dm":
		return sched.DisciplineDM, nil
	default:
		return 0, fmt.Errorf("scenario: unknown discipline %q", s.Discipline)
	}
}

// failurePolicy resolves the declared degradation ladder.
func (s *Scenario) failurePolicy() (rtether.FailurePolicy, error) {
	switch strings.ToLower(s.FailurePolicy) {
	case "", "reject":
		return rtether.FailReject, nil
	case "degrade":
		return rtether.FailDegrade, nil
	case "preempt":
		return rtether.FailPreempt, nil
	default:
		return 0, fmt.Errorf("scenario: unknown failurePolicy %q", s.FailurePolicy)
	}
}

// build constructs the configured (but still unloaded) network for this
// scenario. extra options apply after the document's own.
func (s *Scenario) build(extra ...rtether.Option) (*rtether.Network, error) {
	dps, err := s.dps()
	if err != nil {
		return nil, err
	}
	disc, err := s.discipline()
	if err != nil {
		return nil, err
	}
	policy, err := s.failurePolicy()
	if err != nil {
		return nil, err
	}
	opts := []rtether.Option{
		rtether.WithDPS(dps),
		rtether.WithDiscipline(disc),
		rtether.WithFailurePolicy(policy),
		rtether.WithNonRTQueueCap(s.NonRTQueueCap),
		rtether.WithPropagation(s.Propagation),
	}
	if s.Shaping != nil {
		opts = append(opts, rtether.WithShaping(*s.Shaping))
	}
	if s.Topology != nil {
		top, err := s.Topology.build()
		if err != nil {
			return nil, err
		}
		opts = append(opts, rtether.WithTopology(top))
	}
	opts = append(opts, extra...)
	net := rtether.New(opts...)
	if s.Topology == nil {
		for _, n := range s.Nodes {
			if err := net.AddNode(rtether.NodeID(n)); err != nil {
				return nil, fmt.Errorf("scenario: %w", err)
			}
		}
	}
	return net, nil
}
