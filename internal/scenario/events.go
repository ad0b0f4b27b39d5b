package scenario

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/traffic"
)

// Event kinds of the timeline. All times are slots relative to the
// scenario start (after the static channel population is established).
const (
	// KindEstablish requests one named channel. On a star network the
	// establishment handshake runs over the simulated wire (and consumes
	// virtual time); on a fabric the channel is routed and verified
	// through the management plane.
	KindEstablish = "establish"
	// KindEstablishAll requests a batch of named channels as one atomic
	// all-or-nothing admission decision (Network.EstablishAll): one
	// repartition and one verification sweep, no wire handshake, no
	// virtual time even on stars.
	KindEstablishAll = "establishAll"
	// KindRelease frees a named channel through the management plane.
	KindRelease = "release"
	// KindReconfigure replaces a named channel's {C, P, d} in one atomic
	// admission decision that keeps its ID (rtether.Channel.Reconfigure),
	// through the management plane on every topology: no handshake, no
	// virtual time. The source carries on under the new contract, re-phased
	// when the event gives an offset. A rejected reconfiguration leaves the
	// channel exactly as it was (declare the event optional to tolerate
	// that, otherwise it fails the scenario).
	KindReconfigure = "reconfigure"
	// KindSetBackground changes the rate of one best-effort background
	// flow from the event's slot on (star networks only). A flow that was
	// not declared in the background section starts at rate 0; rate 0
	// silences a flow.
	KindSetBackground = "setBackground"
	// KindPublish releases a burst of count messages (default 1) on a
	// named multicast channel, one per period starting at the event's
	// slot (plus offset). The channel must be established and idle at
	// that slot — multicast sources idle between publish bursts, so
	// bursts on one channel must not overlap: the next may start no
	// earlier than offset + count*P after this one.
	KindPublish = "publish"
	// KindLinkDown fails the trunk named by the event's link pair
	// (multi-switch topologies only). Channels routed over the trunk are
	// re-routed and re-admitted as a batch; the ones the residual
	// network cannot carry go through the scenario's failurePolicy
	// ladder. In-flight frames on the trunk are dropped and counted as
	// deadline misses.
	KindLinkDown = "linkDown"
	// KindSwitchDown fails a whole switch: every trunk at the switch and
	// every node attached to it go dark, with the same recovery pass as
	// linkDown.
	KindSwitchDown = "switchDown"
	// KindRepair brings a failed trunk (link pair) or switch back up.
	// Routes become available again for later admissions and failures;
	// surviving channels are not moved back.
	KindRepair = "repair"
)

// EventDef is one timeline entry. Which fields apply depends on Kind;
// validation rejects stray ones so typos cannot silently change an
// experiment.
type EventDef struct {
	At   int64  `json:"at"`
	Kind string `json:"kind"`

	// Channel names the subject of establish, release and reconfigure;
	// Channels lists the batch of an establishAll.
	Channel  string   `json:"channel,omitempty"`
	Channels []string `json:"channels,omitempty"`

	// C, P, D override the named channel's parameters on reconfigure
	// (0 = keep the current value).
	C int64 `json:"c,omitempty"`
	P int64 `json:"p,omitempty"`
	D int64 `json:"d,omitempty"`

	// Offset delays the restarted traffic source (establish, establishAll
	// and reconfigure) by the given slots past the event; 0 uses the
	// channel's declared offset.
	Offset int64 `json:"offset,omitempty"`

	// Count sizes a publish burst (messages, one per period); 0 means 1.
	Count int64 `json:"count,omitempty"`

	// Optional tolerates an admission rejection: the outcome is recorded
	// and the run continues. Default false — a rejected timeline event
	// fails the scenario.
	Optional bool `json:"optional,omitempty"`

	// Src, Dst and Rate define a setBackground flow change.
	Src  uint16  `json:"src,omitempty"`
	Dst  uint16  `json:"dst,omitempty"`
	Rate float64 `json:"rate,omitempty"`

	// Link names the trunk of a linkDown or repair event as its [a, b]
	// switch pair (either order).
	Link []uint16 `json:"link,omitempty"`
	// Switch names the subject of a switchDown or repair event. A
	// pointer so switch 0 stays distinguishable from an absent field.
	Switch *uint16 `json:"switch,omitempty"`
}

// timedEvent is one compiled timeline entry: a declared EventDef or one
// synthesized by a churn generator, normalized for playback.
type timedEvent struct {
	at   int64
	seq  int // stable tiebreak: declared events first, then churn streams
	kind string

	names    []string // subject channel name(s)
	c, p, d  int64    // reconfigure overrides
	count    int64    // publish burst size
	offset   int64
	optional bool

	src, dst uint16  // setBackground
	rate     float64 // setBackground

	link [2]uint16 // linkDown / link repair trunk pair
	sw   *uint16   // switchDown / switch repair subject
}

// timeline is the compiled dynamic part of a scenario: every event in
// deterministic playback order plus the synthesized channel table.
type timeline struct {
	events []timedEvent
	// defs maps every addressable channel name — declared or churn-made —
	// to its definition.
	defs map[string]ChannelDef
	// deferred marks channels established by a timeline event rather than
	// during the static load phase.
	deferred map[string]bool
	// trace is the parsed backgroundTrace recording (nil without one);
	// compile loads and validates it once so playback does not reread the
	// file.
	trace *traffic.Trace
}

// validateEvents checks every declared event in isolation (kinds, field
// usage, references). The cross-event state machine runs in timeline().
func (s *Scenario) validateEvents(names map[string]bool, nodeSet map[uint16]bool) error {
	defs := make(map[string]ChannelDef, len(s.Channels))
	for _, ch := range s.Channels {
		if ch.Name != "" {
			defs[ch.Name] = ch
		}
	}
	for i, ev := range s.Events {
		fail := func(format string, args ...any) error {
			return fmt.Errorf("scenario: event %d (at %d): %s", i, ev.At, fmt.Sprintf(format, args...))
		}
		if ev.At < 0 || ev.At >= s.Slots {
			return fail("slot outside [0, %d)", s.Slots)
		}
		switch ev.Kind {
		case KindEstablish, KindRelease, KindReconfigure:
			if ev.Channel == "" {
				return fail("%s needs a channel name", ev.Kind)
			}
			if !names[ev.Channel] {
				return fail("references undefined channel %q", ev.Channel)
			}
			if len(ev.Channels) > 0 {
				return fail("%s takes one channel, not a channels list", ev.Kind)
			}
			if ev.Kind == KindReconfigure {
				if defs[ev.Channel].multicast() {
					return fail("multicast channel %q cannot be reconfigured (release and re-establish)", ev.Channel)
				}
				if ev.C < 0 || ev.P < 0 || ev.D < 0 {
					return fail("negative channel parameter")
				}
				if ev.C == 0 && ev.P == 0 && ev.D == 0 {
					return fail("reconfigure changes nothing (set c, p or d)")
				}
			} else if ev.C != 0 || ev.P != 0 || ev.D != 0 {
				return fail("%s does not take c/p/d (use reconfigure)", ev.Kind)
			}
		case KindPublish:
			if ev.Channel == "" {
				return fail("publish needs a channel name")
			}
			if !names[ev.Channel] {
				return fail("references undefined channel %q", ev.Channel)
			}
			if !defs[ev.Channel].multicast() {
				return fail("publish targets unicast channel %q (publish needs a sinks-bearing channel)", ev.Channel)
			}
			if len(ev.Channels) > 0 {
				return fail("publish takes one channel, not a channels list")
			}
			if ev.C != 0 || ev.P != 0 || ev.D != 0 {
				return fail("publish does not take c/p/d")
			}
			if ev.Count < 0 {
				return fail("negative count")
			}
		case KindEstablishAll:
			if len(ev.Channels) == 0 {
				return fail("establishAll needs a channels list")
			}
			if ev.Channel != "" {
				return fail("establishAll takes a channels list, not a single channel")
			}
			seen := make(map[string]bool, len(ev.Channels))
			for _, name := range ev.Channels {
				if !names[name] {
					return fail("references undefined channel %q", name)
				}
				if seen[name] {
					return fail("channel %q listed twice", name)
				}
				if defs[name].multicast() {
					return fail("establishAll member %q is multicast (a tree is already one atomic decision; use establish)", name)
				}
				seen[name] = true
			}
			if ev.C != 0 || ev.P != 0 || ev.D != 0 {
				return fail("establishAll does not take c/p/d (use reconfigure)")
			}
		case KindSetBackground:
			if s.Fabric() {
				return fail("setBackground needs a star network (multi-switch topologies carry RT traffic only)")
			}
			if !nodeSet[ev.Src] || !nodeSet[ev.Dst] {
				return fail("references undeclared node")
			}
			if ev.Rate < 0 {
				return fail("negative rate")
			}
			if ev.Channel != "" || len(ev.Channels) > 0 {
				return fail("setBackground takes src/dst/rate, not channels")
			}
		case KindLinkDown, KindSwitchDown, KindRepair:
			if !s.Fabric() {
				return fail("%s needs a multi-switch topology", ev.Kind)
			}
			if ev.Channel != "" || len(ev.Channels) > 0 {
				return fail("%s takes link/switch, not channels", ev.Kind)
			}
			if ev.C != 0 || ev.P != 0 || ev.D != 0 {
				return fail("%s does not take c/p/d", ev.Kind)
			}
			switch ev.Kind {
			case KindLinkDown:
				if len(ev.Link) == 0 || ev.Switch != nil {
					return fail("linkDown takes a link pair (use switchDown for switches)")
				}
			case KindSwitchDown:
				if ev.Switch == nil || len(ev.Link) > 0 {
					return fail("switchDown takes a switch (use linkDown for trunks)")
				}
			case KindRepair:
				if (len(ev.Link) > 0) == (ev.Switch != nil) {
					return fail("repair takes exactly one of link and switch")
				}
			}
			if len(ev.Link) > 0 {
				if len(ev.Link) != 2 {
					return fail("link must be an [a, b] switch pair")
				}
				if !s.hasTrunk(ev.Link[0], ev.Link[1]) {
					return fail("no trunk between switches %d and %d", ev.Link[0], ev.Link[1])
				}
			}
			if ev.Switch != nil && !s.hasSwitch(*ev.Switch) {
				return fail("unknown switch %d", *ev.Switch)
			}
		default:
			return fmt.Errorf("scenario: event %d: unknown event kind %q", i, ev.Kind)
		}
		if ev.Offset < 0 {
			return fail("negative offset")
		}
		if ev.Count != 0 && ev.Kind != KindPublish {
			return fail("%s does not take count (publish only)", ev.Kind)
		}
		if len(ev.Link) > 0 || ev.Switch != nil {
			switch ev.Kind {
			case KindLinkDown, KindSwitchDown, KindRepair:
			default:
				return fail("%s does not take link/switch", ev.Kind)
			}
		}
	}
	return nil
}

// hasTrunk reports whether the declared topology carries a trunk
// between switches a and b (either order).
func (s *Scenario) hasTrunk(a, b uint16) bool {
	if s.Topology == nil {
		return false
	}
	for _, tr := range s.Topology.Trunks {
		if (tr[0] == a && tr[1] == b) || (tr[0] == b && tr[1] == a) {
			return true
		}
	}
	return false
}

// hasSwitch reports whether the declared topology contains switch sw.
func (s *Scenario) hasSwitch(sw uint16) bool {
	if s.Topology == nil {
		return false
	}
	for _, have := range s.Topology.Switches {
		if have == sw {
			return true
		}
	}
	return false
}

// timeline compiles the declared events and every churn generator into
// one deterministically ordered event stream, then replays the
// establish/release state machine over it so impossible timelines
// (double establishment, releasing a never-established channel, a
// reconfiguration that yields an invalid spec) are rejected at load time
// rather than mid-run.
func (s *Scenario) timeline() (*timeline, error) {
	tl := &timeline{
		defs:     make(map[string]ChannelDef),
		deferred: make(map[string]bool),
	}
	for _, ch := range s.Channels {
		if ch.Name != "" {
			tl.defs[ch.Name] = ch
		}
	}
	for i, ev := range s.Events {
		te := timedEvent{
			at: ev.At, seq: i, kind: ev.Kind,
			c: ev.C, p: ev.P, d: ev.D, count: ev.Count,
			offset: ev.Offset, optional: ev.Optional,
			src: ev.Src, dst: ev.Dst, rate: ev.Rate,
			sw: ev.Switch,
		}
		if len(ev.Link) == 2 {
			te.link = [2]uint16{ev.Link[0], ev.Link[1]}
		}
		switch ev.Kind {
		case KindEstablishAll:
			te.names = ev.Channels
		case KindSetBackground, KindLinkDown, KindSwitchDown, KindRepair:
		default:
			te.names = []string{ev.Channel}
		}
		tl.events = append(tl.events, te)
	}
	seq := len(s.Events)
	for i := range s.Churn {
		n, err := s.Churn[i].synthesize(s, i, seq, tl)
		if err != nil {
			return nil, err
		}
		seq += n
	}
	sort.SliceStable(tl.events, func(a, b int) bool {
		if tl.events[a].at != tl.events[b].at {
			return tl.events[a].at < tl.events[b].at
		}
		return tl.events[a].seq < tl.events[b].seq
	})

	// A named channel is deferred when the timeline's first reference to
	// it is an establishment; otherwise it is part of the static load and
	// events may release (and later re-establish) it.
	seen := make(map[string]bool)
	for _, ev := range tl.events {
		for _, name := range ev.names {
			if seen[name] {
				continue
			}
			seen[name] = true
			if ev.kind == KindEstablish || ev.kind == KindEstablishAll {
				tl.deferred[name] = true
			}
		}
	}

	// State machine: track establishment and the current spec of every
	// addressable channel through the timeline.
	established := make(map[string]bool, len(tl.defs))
	specs := make(map[string]core.ChannelSpec, len(tl.defs))
	// publishUntil tracks, per multicast channel, the first slot after
	// its latest publish burst — bursts must not overlap because each
	// (re)attaches the channel's single periodic source.
	publishUntil := make(map[string]int64)
	for name, def := range tl.defs {
		established[name] = !tl.deferred[name]
		specs[name] = def.spec()
	}
	for _, ev := range tl.events {
		switch ev.kind {
		case KindEstablish, KindEstablishAll:
			for _, name := range ev.names {
				if established[name] {
					return nil, fmt.Errorf("scenario: timeline: slot %d establishes channel %q twice (release it first)", ev.at, name)
				}
				established[name] = true
				// Re-establishment requests the declared definition, not
				// the parameters a pre-release reconfigure left behind —
				// mirror that here so validation tracks runtime exactly.
				specs[name] = tl.defs[name].spec()
			}
		case KindRelease:
			name := ev.names[0]
			if !established[name] {
				return nil, fmt.Errorf("scenario: timeline: slot %d releases channel %q, which is not established then", ev.at, name)
			}
			established[name] = false
			delete(publishUntil, name) // releasing cuts any running burst short
		case KindPublish:
			name := ev.names[0]
			if !established[name] {
				return nil, fmt.Errorf("scenario: timeline: slot %d publishes on channel %q, which is not established then", ev.at, name)
			}
			if until, busy := publishUntil[name]; busy && ev.at < until {
				return nil, fmt.Errorf("scenario: timeline: slot %d publishes on channel %q while its previous burst runs until slot %d", ev.at, name, until)
			}
			count := ev.count
			if count == 0 {
				count = 1
			}
			publishUntil[name] = ev.at + ev.offset + (count-1)*specs[name].P + 1
		case KindReconfigure:
			name := ev.names[0]
			if !established[name] {
				return nil, fmt.Errorf("scenario: timeline: slot %d reconfigures channel %q, which is not established then", ev.at, name)
			}
			spec := reconfigured(specs[name], ev)
			if err := spec.Validate(); err != nil {
				return nil, fmt.Errorf("scenario: timeline: slot %d reconfigures channel %q into an invalid spec: %w", ev.at, name, err)
			}
			specs[name] = spec
		}
	}
	return tl, nil
}

// reconfigured applies a reconfigure event's non-zero overrides to a
// channel spec.
func reconfigured(spec core.ChannelSpec, ev timedEvent) core.ChannelSpec {
	if ev.c != 0 {
		spec.C = ev.c
	}
	if ev.p != 0 {
		spec.P = ev.p
	}
	if ev.d != 0 {
		spec.D = ev.d
	}
	return spec
}
