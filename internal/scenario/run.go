package scenario

import (
	"context"
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/traffic"
	"repro/rtether"
	"repro/rtether/client"
	"repro/rtether/wire"
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
	// IDs lists the channels an accepted establish or establishAll
	// admitted.
	IDs []rtether.ChannelID
	// Err is the rejection of an establish, establishAll or reconfigure
	// that was not accepted.
	Err error
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
	var c Counts
	for _, ev := range r.Events {
		c.Add(ev)
	}
	return c.Ops - c.Rejected - c.Skipped, c.Rejected, c.Skipped
}

// Counts tallies the whole run: the static channels, then every
// timeline event.
func (r *Result) Counts() Counts {
	c := Counts{
		Ops:      len(r.Accepted) + r.Rejected,
		Accepted: len(r.Accepted),
		Rejected: r.Rejected,
	}
	for _, ev := range r.Events {
		c.Add(ev)
	}
	return c
}

// Run builds the network, establishes the static channel population over
// the wire, schedules background traffic, plays the event timeline at
// its slots, and runs the simulation to the configured horizon.
//
// Runs are deterministic: the same document produces byte-identical
// results everywhere, including the synthesized churn streams.
func (s *Scenario) Run() (*Result, error) {
	return s.execute(true, false)
}

// Replay plays the same timeline against admission control alone: every
// establishment goes through the management plane (no wire handshake),
// no traffic source is started, and no virtual time passes. It answers
// "which decisions would this workload produce" at full speed — the
// what-if mode of `rtexp admit -scenario`.
func (s *Scenario) Replay() (*Result, error) {
	return s.execute(false, false)
}

// ReplayEach is Replay with every run of consecutive unicast
// establishes — static channels and timeline events alike — decided in
// EstablishEach passes of at most maxEachGroup, each channel with its
// own verdict: the in-process analogue of the daemon's coalescer. An
// establishAll stays one atomic decision.
func (s *Scenario) ReplayEach() (*Result, error) {
	return s.execute(false, true)
}

// maxEachGroup caps how many consecutive establishes merge into one
// EstablishEach pass — the in-process analogue of the daemon
// coalescer's batch cap (1024).
const maxEachGroup = 512

func (s *Scenario) execute(simulate, each bool) (*Result, error) {
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
	target := netTarget{net: net, handshake: simulate}
	p := NewPlayer(target)
	steps := tl.steps(s.Channels)
	play := func(st Step) error {
		out, err := p.Play(context.TODO(), st)
		res.record(st, out)
		return err
	}

	if !simulate {
		for i := 0; i < len(steps); {
			n := 0
			if each {
				n = unicastRun(steps[i:])
			}
			if n == 0 {
				if err := play(steps[i]); err != nil {
					return nil, err
				}
				i++
				continue
			}
			group := steps[i : i+n]
			specs := make([]rtether.ChannelSpec, n)
			for j, st := range group {
				specs[j] = st.defs[0].spec()
			}
			chs, errs := target.establishEach(specs)
			for j, st := range group {
				out, err := p.established(st, chs[j:j+1], errs[j])
				if res.record(st, out); err != nil {
					return nil, err
				}
			}
			i += n
		}
		return res, nil
	}

	// Static load phase: establishment runs over the wire on stars — the
	// paper's protocol — so it consumes virtual time. The timeline starts
	// once it is done.
	p.sim = net
	timed := 0
	for timed < len(steps) && steps[timed].static {
		if err := play(steps[timed]); err != nil {
			return nil, err
		}
		timed++
	}
	start := net.Now()
	res.BgSent = s.scheduleBackground(net, tl, start)
	for _, st := range steps[timed:] {
		net.RunUntil(start + st.at)
		if err := play(st); err != nil {
			return nil, err
		}
	}
	net.RunUntil(start + s.Slots)
	res.Report = net.Report()
	return res, nil
}

// unicastRun counts the consecutive unicast establishes that open
// steps, at most maxEachGroup.
func unicastRun(steps []Step) int {
	n := 0
	for n < len(steps) && n < maxEachGroup && steps[n].kind == KindEstablish && !steps[n].defs[0].multicast() {
		n++
	}
	return n
}

// record files one step's outcome: a static channel under
// Accepted/Rejected, a timeline event under Events.
func (r *Result) record(st Step, out EventOutcome) {
	switch {
	case !st.static:
		r.Events = append(r.Events, out)
	case out.Accepted:
		r.Accepted = append(r.Accepted, out.IDs...)
	default:
		r.Rejected++
	}
}

// summarizeFailover condenses a recovery pass for the event log:
// "3 affected: 2 rerouted, 1 lost".
func summarizeFailover(rep wire.FailReply) string {
	if rep.Affected == 0 {
		return "no channels affected"
	}
	var parts []string
	for _, o := range []rtether.FailoverOutcome{
		rtether.Rerouted, rtether.Degraded, rtether.Preempted, rtether.Lost,
	} {
		n := 0
		for _, oc := range rep.Outcomes {
			if oc.Outcome == o.String() {
				n++
			}
		}
		if n > 0 {
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
func describe(ch client.Channel) string {
	strs := make([]string, len(ch.Budgets))
	for i, b := range ch.Budgets {
		strs[i] = fmt.Sprintf("%d", b)
	}
	return fmt.Sprintf("RT#%d[%s]", ch.ID, strings.Join(strs, "+"))
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
