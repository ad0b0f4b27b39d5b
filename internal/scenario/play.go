package scenario

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"repro/rtether"
	"repro/rtether/client"
	"repro/rtether/wire"
)

// Target is what a scenario's admission stream plays on. It is the
// daemon client's own method set, so a *client.Client is a Target as it
// stands; an in-process network plays through netTarget. Channels are
// named by ID, and Reconfigure's zero overrides keep the current value,
// as on the wire.
type Target interface {
	Establish(ctx context.Context, spec rtether.ChannelSpec) (client.Channel, error)
	EstablishAll(ctx context.Context, specs []rtether.ChannelSpec) ([]client.Channel, error)
	EstablishMulticast(ctx context.Context, spec rtether.MulticastSpec) (client.Channel, error)
	Release(ctx context.Context, id rtether.ChannelID) error
	Reconfigure(ctx context.Context, id rtether.ChannelID, c, p, d int64) (client.Channel, error)
	SetLinkUp(ctx context.Context, a, b rtether.SwitchID, up bool) (wire.FailReply, error)
	SetSwitchUp(ctx context.Context, s rtether.SwitchID, up bool) (wire.FailReply, error)
}

// Step is one operation of a scenario's admission stream: a channel of
// the static load, or a timeline event (churn included). Steps compiles
// them in playback order; a Player plays them on a Target.
type Step struct {
	timedEvent
	defs   []ChannelDef // the definitions of names, in order
	static bool         // a static-load channel: Result.Accepted/Rejected, not Result.Events
	index  int          // a static channel's declaration index
}

// Names returns the channels the step acts on, in order: none for a
// failure or background event, "" for an unnamed static channel.
func (st Step) Names() []string { return st.names }

// Steps validates the document and compiles its admission stream: the
// static channels in declaration order, then every timeline event in
// playback order.
func (s *Scenario) Steps() ([]Step, error) {
	tl, err := s.compile()
	if err != nil {
		return nil, err
	}
	return tl.steps(s.Channels), nil
}

// steps compiles the stream from the timeline and the declared static
// channels (those no timeline establish defers).
func (tl *timeline) steps(channels []ChannelDef) []Step {
	steps := make([]Step, 0, len(channels)+len(tl.events))
	for i, ch := range channels {
		if ch.Name != "" && tl.deferred[ch.Name] {
			continue
		}
		steps = append(steps, Step{
			timedEvent: timedEvent{kind: KindEstablish, names: []string{ch.Name}, optional: ch.Optional},
			defs:       []ChannelDef{ch},
			static:     true,
			index:      i,
		})
	}
	for _, ev := range tl.events {
		st := Step{timedEvent: ev}
		for _, name := range ev.names {
			st.defs = append(st.defs, tl.defs[name])
		}
		steps = append(steps, st)
	}
	return steps
}

// outcome starts the step's outcome record.
func (st Step) outcome() EventOutcome {
	out := EventOutcome{At: st.at, Kind: st.kind, Subject: strings.Join(st.names, ",")}
	switch {
	case st.kind == KindSetBackground:
		out.Subject = fmt.Sprintf("%d→%d", st.src, st.dst)
	case st.sw != nil:
		out.Subject = fmt.Sprintf("switch %d", *st.sw)
	case st.kind == KindLinkDown || st.kind == KindRepair:
		out.Subject = fmt.Sprintf("trunk %d-%d", st.link[0], st.link[1])
	}
	return out
}

// Player plays a stream of steps on one target, remembering the
// channel ID each scenario name was assigned so later steps can act on
// it. One goroutine drives a Player.
type Player struct {
	target Target
	ids    map[string]rtether.ChannelID
	// sim is the network whose traffic sources the steps drive in a
	// full run; nil in admission-only play.
	sim *rtether.Network
}

// NewPlayer returns a player on target with no channel established.
func NewPlayer(target Target) *Player {
	return &Player{target: target, ids: make(map[string]rtether.ChannelID)}
}

// Play applies one step. A rejection the step tolerates (an optional
// channel or event) is an outcome like any other, with the rejection in
// EventOutcome.Err; the returned error reports what the step cannot
// tolerate — a mandatory rejection, or a failure of the target itself.
func (p *Player) Play(ctx context.Context, st Step) (EventOutcome, error) {
	out := st.outcome()
	switch st.kind {
	case KindEstablish:
		var ch client.Channel
		var err error
		if def := st.defs[0]; def.multicast() {
			ch, err = p.target.EstablishMulticast(ctx, def.mspec())
		} else {
			ch, err = p.target.Establish(ctx, def.spec())
		}
		return p.established(st, []client.Channel{ch}, err)
	case KindEstablishAll:
		specs := make([]rtether.ChannelSpec, len(st.defs))
		for i, def := range st.defs {
			specs[i] = def.spec()
		}
		chs, err := p.target.EstablishAll(ctx, specs)
		return p.established(st, chs, err)
	case KindRelease:
		id, ok := p.lookup(st, &out)
		if !ok {
			return out, nil
		}
		delete(p.ids, st.names[0])
		if err := p.target.Release(ctx, id); err != nil {
			if gone(err) {
				return recovered(out), nil
			}
			return out, fatal(st, &out, err)
		}
		out.Accepted = true
	case KindReconfigure:
		id, ok := p.lookup(st, &out)
		if !ok {
			return out, nil
		}
		ch, err := p.target.Reconfigure(ctx, id, st.c, st.p, st.d)
		switch {
		case gone(err):
			delete(p.ids, st.names[0])
			return recovered(out), nil
		case err != nil:
			// One atomic decision: a tolerated rejection leaves the channel
			// exactly as it was.
			return rejected(st, out, err)
		}
		if p.sim != nil && st.offset > 0 {
			// The source carries on in phase unless the event re-phases it.
			h := p.sim.Lookup(id)
			_ = h.Stop()
			if err := h.Start(st.offset); err != nil {
				return out, fatal(st, &out, err)
			}
		}
		out.Accepted = true
		out.Detail = describe(ch)
	case KindPublish:
		id, ok := p.lookup(st, &out)
		if !ok {
			return out, nil
		}
		count := st.count
		if count == 0 {
			count = 1
		}
		out.Detail = fmt.Sprintf("%d msg", count)
		if p.sim != nil {
			// A burst is the channel's periodic source running for count
			// periods: attach it now, detach it after the last release.
			// Validation guarantees bursts on one channel never overlap; a
			// mid-burst release just makes the scheduled stop a no-op.
			h := p.sim.Lookup(id)
			if h == nil {
				return recovered(out), nil
			}
			if err := h.Start(st.offset); err != nil {
				return out, fatal(st, &out, err)
			}
			stopAt := p.sim.Now() + st.offset + (count-1)*h.Spec().P + 1
			p.sim.Schedule(stopAt, func() { _ = h.Stop() })
		}
		out.Accepted = true
	case KindSetBackground:
		// The rate change itself was folded into the pre-scheduled
		// arrival processes (scheduleBackground); without simulation
		// there is no traffic at all. Either way the event just records
		// itself.
		out.Accepted = true
		out.Detail = fmt.Sprintf("rate=%g", st.rate)
	case KindLinkDown, KindSwitchDown, KindRepair:
		up := st.kind == KindRepair
		var rep wire.FailReply
		var err error
		if st.sw != nil {
			rep, err = p.target.SetSwitchUp(ctx, rtether.SwitchID(*st.sw), up)
		} else {
			rep, err = p.target.SetLinkUp(ctx, rtether.SwitchID(st.link[0]), rtether.SwitchID(st.link[1]), up)
		}
		if err != nil {
			return out, fatal(st, &out, err)
		}
		// A failure event applies cleanly even when the policy ladder
		// loses channels — that is the declared policy deciding, not the
		// scenario failing. Channels closed here surface as SKIP on later
		// steps that name them.
		out.Accepted = true
		out.Detail = summarizeFailover(rep)
	}
	return out, nil
}

// established records an establish or establishAll verdict: the IDs of
// the admitted channels, whose periodic sources start in a full run
// (multicast sources idle until a publish), or the rejection.
func (p *Player) established(st Step, chs []client.Channel, err error) (EventOutcome, error) {
	out := st.outcome()
	if err != nil {
		return rejected(st, out, err)
	}
	ids := make([]string, len(chs))
	for i, ch := range chs {
		if name := st.names[i]; name != "" {
			p.ids[name] = ch.ID
		}
		if p.sim != nil && !st.defs[i].multicast() {
			if err := p.sim.Lookup(ch.ID).Start(startOffset(st.timedEvent, st.defs[i])); err != nil {
				return out, fatal(st, &out, err)
			}
		}
		out.IDs = append(out.IDs, ch.ID)
		ids[i] = describe(ch)
	}
	out.Accepted = true
	out.Detail = strings.Join(ids, " ")
	return out, nil
}

// rejected records an admission rejection, fatal unless the step is
// optional.
func rejected(st Step, out EventOutcome, err error) (EventOutcome, error) {
	out.Err = err
	out.Detail = err.Error()
	if !st.optional {
		return out, fatal(st, &out, err)
	}
	return out, nil
}

// lookup finds the channel ID a release, reconfigure or publish acts
// on; a channel whose optional establish was rejected has none, and the
// outcome becomes a skip.
func (p *Player) lookup(st Step, out *EventOutcome) (rtether.ChannelID, bool) {
	id, ok := p.ids[st.names[0]]
	if !ok {
		out.Skipped = true
		out.Detail = "never established"
	}
	return id, ok
}

// gone reports whether a release or reconfigure found its channel torn
// down behind the scenario's back by a failure-recovery pass (preempted
// or lost): the daemon no longer knows the ID, or the in-process handle
// is closed.
func gone(err error) bool {
	return errors.Is(err, client.ErrUnknownChannel) || errors.Is(err, rtether.ErrChannelClosed)
}

// recovered marks an outcome skipped because failure recovery closed
// its channel.
func recovered(out EventOutcome) EventOutcome {
	out.Skipped = true
	out.Detail = "closed by failure recovery"
	return out
}

// fatal records err on the outcome and wraps it as the run's error.
func fatal(st Step, out *EventOutcome, err error) error {
	out.Detail = err.Error()
	if st.static {
		return fmt.Errorf("scenario: channel %d (%v) rejected: %w", st.index, st.defs[0].spec(), err)
	}
	return fmt.Errorf("scenario: slot %d: %s %s rejected: %w", st.at, st.kind, out.Subject, err)
}

// Counts tallies played steps: each is one operation. Accepted counts
// admissions committed (establish, establishAll, reconfigure), Rejected
// admission rejections, Released applied releases, and Skipped steps
// naming a channel that is not established; publish, background and
// failure events count only as operations.
type Counts struct {
	Ops, Accepted, Rejected, Released, Skipped int
}

// Add tallies one outcome.
func (c *Counts) Add(out EventOutcome) {
	c.Ops++
	switch {
	case out.Skipped:
		c.Skipped++
	case !out.Accepted:
		c.Rejected++
	case out.Kind == KindRelease:
		c.Released++
	case out.Kind == KindEstablish, out.Kind == KindEstablishAll, out.Kind == KindReconfigure:
		c.Accepted++
	}
}

// netTarget plays on an in-process network, finding channels by ID
// through Network.Lookup. With handshake, a unicast Establish runs the
// establishment handshake over the simulated wire (Run); otherwise it
// takes the management-plane batch path, so no virtual time passes
// (Replay). The admission decision is the same either way — both paths
// run the same kernel.
type netTarget struct {
	net       *rtether.Network
	handshake bool
}

// NewTarget returns the target that plays on an in-process network as
// Replay does: every establish takes the management-plane batch path,
// so no virtual time passes.
func NewTarget(net *rtether.Network) Target { return netTarget{net: net} }

func (t netTarget) Establish(ctx context.Context, spec rtether.ChannelSpec) (client.Channel, error) {
	if t.handshake {
		return channelOf(t.net.Establish(spec))
	}
	chs, err := t.EstablishAll(ctx, []rtether.ChannelSpec{spec})
	if err != nil {
		return client.Channel{}, err
	}
	return chs[0], nil
}

func (t netTarget) EstablishAll(_ context.Context, specs []rtether.ChannelSpec) ([]client.Channel, error) {
	hs, err := t.net.EstablishAll(specs)
	if err != nil {
		return nil, err
	}
	chs := make([]client.Channel, len(hs))
	for i, h := range hs {
		chs[i], _ = channelOf(h, nil)
	}
	return chs, nil
}

// establishEach decides specs in one merged pass with a verdict each,
// the path the daemon's coalescer takes.
func (t netTarget) establishEach(specs []rtether.ChannelSpec) ([]client.Channel, []error) {
	hs, errs := t.net.EstablishEach(specs)
	chs := make([]client.Channel, len(hs))
	for i, h := range hs {
		chs[i], _ = channelOf(h, errs[i])
	}
	return chs, errs
}

func (t netTarget) EstablishMulticast(_ context.Context, spec rtether.MulticastSpec) (client.Channel, error) {
	return channelOf(t.net.EstablishMulticast(spec))
}

func (t netTarget) Release(_ context.Context, id rtether.ChannelID) error {
	h, err := t.lookup(id)
	if err != nil {
		return err
	}
	return h.Release()
}

func (t netTarget) Reconfigure(_ context.Context, id rtether.ChannelID, c, p, d int64) (client.Channel, error) {
	h, err := t.lookup(id)
	if err != nil {
		return client.Channel{}, err
	}
	spec := reconfigured(h.Spec(), timedEvent{c: c, p: p, d: d})
	return channelOf(h, h.Reconfigure(rtether.EstablishReq{Spec: spec}))
}

func (t netTarget) SetLinkUp(_ context.Context, a, b rtether.SwitchID, up bool) (wire.FailReply, error) {
	return failReply(t.net.SetLinkUp(a, b, up))
}

func (t netTarget) SetSwitchUp(_ context.Context, s rtether.SwitchID, up bool) (wire.FailReply, error) {
	return failReply(t.net.SetSwitchUp(s, up))
}

// lookup finds a live channel, or reports it unknown as the daemon
// does.
func (t netTarget) lookup(id rtether.ChannelID) (*rtether.Channel, error) {
	h := t.net.Lookup(id)
	if h == nil {
		return nil, fmt.Errorf("%w: %d", client.ErrUnknownChannel, id)
	}
	return h, nil
}

// channelOf describes an admitted handle as the client does, or passes
// the admission error on.
func channelOf(h *rtether.Channel, err error) (client.Channel, error) {
	if err != nil {
		return client.Channel{}, err
	}
	return client.Channel{ID: h.ID(), Budgets: h.Budgets(), GuaranteedDelay: h.GuaranteedDelay()}, nil
}

// failReply converts a recovery pass's report to its wire form.
func failReply(rep *rtether.FailoverReport, err error) (wire.FailReply, error) {
	if err != nil {
		return wire.FailReply{}, err
	}
	return wire.FromFailoverReport(rep), nil
}
