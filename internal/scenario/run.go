package scenario

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/traffic"
	"repro/rtether"
)

// EventOutcome records what one timeline event did when it was applied.
type EventOutcome struct {
	At      int64  // scenario slot the event was scheduled for
	Kind    string // event kind (KindEstablish, ...)
	Subject string // channel name(s), or "src→dst" for setBackground
	// Accepted is true when the event applied cleanly (admission said
	// yes, the release went through, the rate change was recorded).
	Accepted bool
	// Skipped marks a release or reconfigure of a channel whose earlier
	// optional establishment was rejected — there is nothing to act on.
	Skipped bool
	// Detail carries the admission outcome: assigned IDs and per-hop
	// budgets on acceptance, the *AdmissionError text on rejection.
	Detail string
}

// Result is a completed scenario run (or admission-only replay).
type Result struct {
	Network *rtether.Network
	// Accepted and Rejected cover the static load phase: the channels
	// established before the measurement horizon starts.
	Accepted []rtether.ChannelID
	Rejected int
	// Events holds one outcome per timeline event, in playback order.
	Events []EventOutcome
	// BgSent counts scheduled best-effort frames (full runs only).
	BgSent int
	// Report is the final measurement snapshot; nil for Replay, which
	// never advances virtual time.
	Report *rtether.Report
}

// String renders the outcome as one fixed-width report line:
//
//	slot 200    establish     video            ACCEPT RT#7[6+16+16+10]
func (ev EventOutcome) String() string {
	verdict := "REJECT"
	switch {
	case ev.Skipped:
		verdict = "SKIP"
	case ev.Accepted:
		verdict = "OK"
		if ev.Kind == KindEstablish || ev.Kind == KindEstablishAll || ev.Kind == KindReconfigure {
			verdict = "ACCEPT"
		}
	}
	line := fmt.Sprintf("slot %-6d %-13s %-16s %s", ev.At, ev.Kind, ev.Subject, verdict)
	if ev.Detail != "" {
		line += " " + ev.Detail
	}
	return line
}

// EventCounts sums the timeline outcomes: events that applied cleanly,
// admission rejections (tolerated ones — fatal rejections abort the
// run), and events skipped because their channel was never established.
func (r *Result) EventCounts() (accepted, rejected, skipped int) {
	for _, ev := range r.Events {
		switch {
		case ev.Skipped:
			skipped++
		case ev.Accepted:
			accepted++
		default:
			rejected++
		}
	}
	return
}

// Run builds the network, establishes the static channel population over
// the wire, schedules background traffic, plays the event timeline at
// its slots, and runs the simulation to the configured horizon.
//
// Runs are deterministic: the same document produces byte-identical
// results everywhere, including the synthesized churn streams.
func (s *Scenario) Run() (*Result, error) {
	return s.execute(true)
}

// Replay plays the same timeline against admission control alone: every
// establishment goes through the management plane (no wire handshake),
// no traffic source is started, and no virtual time passes. It answers
// "which decisions would this workload produce" at full speed — the
// what-if mode of `rtexp admit -scenario`.
func (s *Scenario) Replay() (*Result, error) {
	return s.execute(false)
}

func (s *Scenario) execute(simulate bool) (*Result, error) {
	// One compile pass covers validation and churn synthesis.
	tl, err := s.compile()
	if err != nil {
		return nil, err
	}
	net, err := s.build()
	if err != nil {
		return nil, err
	}
	res := &Result{Network: net}
	handles := make(map[string]*rtether.Channel, len(tl.defs))

	// Static load phase: every channel not deferred to a timeline event,
	// in declaration order. Establishment runs over the wire on stars —
	// the paper's protocol — so it consumes virtual time; Replay takes
	// the management plane instead.
	for i, ch := range s.Channels {
		if ch.Name != "" && tl.deferred[ch.Name] {
			continue
		}
		h, err := s.establishDef(net, ch, simulate)
		if err != nil {
			if ch.Optional {
				res.Rejected++
				continue
			}
			return nil, fmt.Errorf("scenario: channel %d (%v) rejected: %w", i, ch.spec(), err)
		}
		if ch.Name != "" {
			handles[ch.Name] = h
		}
		// Multicast sources stay idle until a publish event triggers a
		// burst; unicast channels stream periodically from the start.
		if simulate && !ch.multicast() {
			if err := h.Start(ch.Offset); err != nil {
				return nil, fmt.Errorf("scenario: channel %d: %w", i, err)
			}
		}
		res.Accepted = append(res.Accepted, h.ID())
	}

	start := net.Now()
	if simulate {
		res.BgSent = s.scheduleBackground(net, tl, start)
	}

	for _, ev := range tl.events {
		if simulate {
			net.RunUntil(start + ev.at)
		}
		out, err := s.applyEvent(net, tl, handles, ev, simulate)
		res.Events = append(res.Events, out)
		if err != nil {
			return nil, err
		}
	}

	if simulate {
		net.RunUntil(start + s.Slots)
		res.Report = net.Report()
	}
	return res, nil
}

// establishOne requests a single channel: over the wire when simulating
// (stars play the establishment handshake; fabrics have none), through
// the management-plane batch path in replay mode so no virtual time
// passes. The admission decision is the same either way — both paths run
// the same kernel.
func (s *Scenario) establishOne(net *rtether.Network, spec rtether.ChannelSpec, simulate bool) (*rtether.Channel, error) {
	if simulate {
		return net.Establish(spec)
	}
	chs, err := net.EstablishAll([]rtether.ChannelSpec{spec})
	if err != nil {
		return nil, err
	}
	return chs[0], nil
}

// establishDef requests a declared channel, dispatching on its kind:
// multicast definitions admit their whole distribution tree atomically
// through the management plane (there is no wire handshake for trees,
// so no virtual time passes in either mode).
func (s *Scenario) establishDef(net *rtether.Network, def ChannelDef, simulate bool) (*rtether.Channel, error) {
	if def.multicast() {
		return net.EstablishMulticast(def.mspec())
	}
	return s.establishOne(net, def.spec(), simulate)
}

// applyEvent executes one timeline event against the live network. The
// returned error is non-nil only for fatal conditions (a mandatory
// rejection or an internal inconsistency); tolerated rejections land in
// the outcome.
func (s *Scenario) applyEvent(net *rtether.Network, tl *timeline, handles map[string]*rtether.Channel, ev timedEvent, simulate bool) (EventOutcome, error) {
	out := EventOutcome{At: ev.at, Kind: ev.kind, Subject: strings.Join(ev.names, ",")}
	fatal := func(err error) (EventOutcome, error) {
		out.Detail = err.Error()
		return out, fmt.Errorf("scenario: slot %d: %s %s rejected: %w", ev.at, ev.kind, out.Subject, err)
	}
	switch ev.kind {
	case KindEstablish:
		name := ev.names[0]
		def := tl.defs[name]
		h, err := s.establishDef(net, def, simulate)
		if err != nil {
			if !ev.optional {
				return fatal(err)
			}
			out.Detail = err.Error()
			return out, nil
		}
		handles[name] = h
		if simulate && !def.multicast() {
			if err := h.Start(startOffset(ev, def)); err != nil {
				return fatal(err)
			}
		}
		out.Accepted = true
		out.Detail = describe(h)
	case KindEstablishAll:
		specs := make([]rtether.ChannelSpec, len(ev.names))
		for i, name := range ev.names {
			specs[i] = tl.defs[name].spec()
		}
		chs, err := net.EstablishAll(specs)
		if err != nil {
			if !ev.optional {
				return fatal(err)
			}
			out.Detail = err.Error()
			return out, nil
		}
		ids := make([]string, len(chs))
		for i, h := range chs {
			name := ev.names[i]
			handles[name] = h
			if simulate {
				if err := h.Start(startOffset(ev, tl.defs[name])); err != nil {
					return fatal(err)
				}
			}
			ids[i] = describe(h)
		}
		out.Accepted = true
		out.Detail = strings.Join(ids, " ")
	case KindRelease:
		name := ev.names[0]
		h := handles[name]
		if h == nil {
			out.Skipped = true
			out.Detail = "never established"
			return out, nil
		}
		if err := h.Release(); err != nil {
			// The channel was torn down behind the scenario's back by a
			// failure-recovery pass (preempted or lost); nothing to free.
			if errors.Is(err, rtether.ErrChannelClosed) {
				delete(handles, name)
				out.Skipped = true
				out.Detail = "closed by failure recovery"
				return out, nil
			}
			return fatal(err)
		}
		delete(handles, name)
		out.Accepted = true
	case KindReconfigure:
		name := ev.names[0]
		h := handles[name]
		if h == nil {
			out.Skipped = true
			out.Detail = "never established"
			return out, nil
		}
		err := h.Reconfigure(rtether.EstablishReq{Spec: reconfigured(h.Spec(), ev)})
		switch {
		case errors.Is(err, rtether.ErrChannelClosed):
			delete(handles, name)
			out.Skipped = true
			out.Detail = "closed by failure recovery"
			return out, nil
		case err != nil:
			// One atomic decision: a tolerated rejection leaves the channel
			// exactly as it was.
			if !ev.optional {
				return fatal(err)
			}
			out.Detail = err.Error()
			return out, nil
		}
		if simulate && ev.offset > 0 {
			// The source carries on in phase unless the event re-phases it.
			_ = h.Stop()
			if err := h.Start(ev.offset); err != nil {
				return fatal(err)
			}
		}
		out.Accepted = true
		out.Detail = describe(h)
	case KindPublish:
		name := ev.names[0]
		h := handles[name]
		if h == nil {
			out.Skipped = true
			out.Detail = "never established"
			return out, nil
		}
		count := ev.count
		if count == 0 {
			count = 1
		}
		out.Detail = fmt.Sprintf("%d msg", count)
		if simulate {
			// A burst is the channel's periodic source running for count
			// periods: attach it now, detach it after the last release.
			// Validation guarantees bursts on one channel never overlap; a
			// mid-burst release just makes the scheduled stop a no-op.
			if err := h.Start(ev.offset); err != nil {
				if errors.Is(err, rtether.ErrChannelClosed) {
					out.Skipped = true
					out.Detail = "closed by failure recovery"
					return out, nil
				}
				return fatal(err)
			}
			stopAt := net.Now() + ev.offset + (count-1)*h.Spec().P + 1
			net.Schedule(stopAt, func() { _ = h.Stop() })
		}
		out.Accepted = true
	case KindSetBackground:
		// The rate change itself was folded into the pre-scheduled
		// arrival processes (scheduleBackground); in replay mode there is
		// no traffic at all. Either way the event just records itself.
		out.Subject = fmt.Sprintf("%d→%d", ev.src, ev.dst)
		out.Accepted = true
		out.Detail = fmt.Sprintf("rate=%g", ev.rate)
	case KindLinkDown, KindSwitchDown, KindRepair:
		up := ev.kind == KindRepair
		var rep *rtether.FailoverReport
		var err error
		if ev.sw != nil {
			out.Subject = fmt.Sprintf("switch %d", *ev.sw)
			rep, err = net.SetSwitchUp(rtether.SwitchID(*ev.sw), up)
		} else {
			out.Subject = fmt.Sprintf("trunk %d-%d", ev.link[0], ev.link[1])
			rep, err = net.SetLinkUp(rtether.SwitchID(ev.link[0]), rtether.SwitchID(ev.link[1]), up)
		}
		if err != nil {
			return fatal(err)
		}
		// A failure event applies cleanly even when the policy ladder
		// loses channels — that is the declared policy deciding, not the
		// scenario failing. Handles closed here surface as SKIP on later
		// events that reference them.
		out.Accepted = true
		out.Detail = summarizeFailover(rep)
	}
	return out, nil
}

// summarizeFailover condenses a recovery pass for the event log:
// "3 affected: 2 rerouted, 1 lost".
func summarizeFailover(rep *rtether.FailoverReport) string {
	if rep.Affected == 0 {
		return "no channels affected"
	}
	var parts []string
	for _, o := range []rtether.FailoverOutcome{
		rtether.Rerouted, rtether.Degraded, rtether.Preempted, rtether.Lost,
	} {
		if n := rep.Count(o); n > 0 {
			parts = append(parts, fmt.Sprintf("%d %s", n, o))
		}
	}
	return fmt.Sprintf("%d affected: %s", rep.Affected, strings.Join(parts, ", "))
}

// startOffset picks the traffic release phase for a (re)established
// channel: the event's offset when given, the channel's declared one
// otherwise.
func startOffset(ev timedEvent, def ChannelDef) int64 {
	if ev.offset > 0 {
		return ev.offset
	}
	return def.Offset
}

// describe formats a channel's identity and committed per-hop budgets
// for event outcomes: "RT#3[20+20]".
func describe(h *rtether.Channel) string {
	parts := h.Budgets()
	strs := make([]string, len(parts))
	for i, b := range parts {
		strs[i] = fmt.Sprintf("%d", b)
	}
	return fmt.Sprintf("RT#%d[%s]", h.ID(), strings.Join(strs, "+"))
}

// bgSegment is one constant-rate stretch of a background flow.
type bgSegment struct {
	from, to int64
	rate     float64
}

// scheduleBackground pre-schedules every best-effort arrival for the
// whole run. Flows are piecewise-constant-rate processes: the declared
// background section sets the initial rates and setBackground events
// switch a flow's rate at their slot. Arrivals are drawn flow by flow,
// segment by segment from one seeded stream, so the same document always
// produces the same arrival slots (and a document without setBackground
// events draws exactly the sequence older single-rate scenarios did).
func (s *Scenario) scheduleBackground(net *rtether.Network, tl *timeline, start int64) int {
	type flow struct {
		src, dst uint16
		segs     []bgSegment
	}
	var flows []*flow
	index := make(map[[2]uint16]*flow)
	ensure := func(src, dst uint16, initial float64) *flow {
		key := [2]uint16{src, dst}
		if f := index[key]; f != nil {
			return f
		}
		f := &flow{src: src, dst: dst, segs: []bgSegment{{from: 0, to: s.Slots, rate: initial}}}
		index[key] = f
		flows = append(flows, f)
		return f
	}
	for _, bg := range s.Background {
		ensure(bg.Src, bg.Dst, bg.Rate)
	}
	for _, ev := range tl.events {
		if ev.kind != KindSetBackground {
			continue
		}
		f := ensure(ev.src, ev.dst, 0)
		last := &f.segs[len(f.segs)-1]
		if last.from == ev.at {
			last.rate = ev.rate // same-slot override: the later event wins
			continue
		}
		last.to = ev.at
		f.segs = append(f.segs, bgSegment{from: ev.at, to: s.Slots, rate: ev.rate})
	}

	rng := rand.New(rand.NewSource(s.Seed + 1))
	sent := 0
	for _, f := range flows {
		src, dst := rtether.NodeID(f.src), rtether.NodeID(f.dst)
		for _, seg := range f.segs {
			if seg.rate <= 0 || seg.to <= seg.from {
				continue
			}
			for _, at := range traffic.PoissonArrivals(rng, seg.rate, seg.to-seg.from) {
				t := start + seg.from + at
				net.Schedule(t, func() { net.SendBestEffort(src, dst, []byte("bg")) })
				sent++
			}
		}
	}
	// Recorded load on top: the backgroundTrace arrivals replay at their
	// recorded slots, no randomness involved — the same file always
	// injects the identical frame sequence. Events past the horizon are
	// dropped (they could never be delivered inside the run).
	if tl.trace != nil {
		for _, ev := range tl.trace.Events {
			if ev.At >= s.Slots {
				break // the trace is time-ordered; nothing later fits either
			}
			src, dst := rtether.NodeID(ev.Src), rtether.NodeID(ev.Dst)
			net.Schedule(start+ev.At, func() { net.SendBestEffort(src, dst, []byte("bg")) })
			sent++
		}
	}
	return sent
}
