package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"runtime"
	"strconv"
	"time"

	"repro/internal/obs"
	"repro/rtether"
	"repro/rtether/wire"
)

// binding is one operation of the wire table bound to its body: the
// HTTP handler with its request counter and duration histogram and, for
// operations with a binary frame pair, the frame handler with its
// dispatch histogram (the metrics are set by mountRoutes).
type binding struct {
	name, method, path string
	msg, reply         wire.MsgType
	http               http.HandlerFunc
	frame              func(ctx context.Context, bc *binConn, reqID uint32, payload []byte)
	dur                *obs.Histogram
	reqs               *obs.Counter
	httpDur            *obs.Histogram
}

// served records one HTTP request that started at start.
func (b *binding) served(start time.Time) {
	b.reqs.Inc()
	b.httpDur.Observe(time.Since(start).Nanoseconds())
}

// streamed binds a streaming endpoint, recorded when its stream ends.
func streamed(path string, fn http.HandlerFunc) *binding {
	b := &binding{method: http.MethodGet, path: path}
	b.http = func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		fn(w, r)
		b.served(start)
	}
	return b
}

// bind derives both transports' handlers from one op and its body. A
// body's error reaches the caller through errorBody: classified, or as
// the *wire.Error the body built itself. Both transports record a
// request before its reply leaves, so a client that reads its reply and
// then scrapes /metrics always finds its own request counted.
func bind[Req, Rep any](op *wire.Op[Req, Rep], body func(context.Context, Req) (Rep, error)) *binding {
	b := &binding{name: op.Name, method: op.Method, path: op.Path, msg: op.Msg, reply: op.Reply}
	b.http = func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		var req Req
		if we := decode(w, r, op.Method, &req); we != nil {
			b.served(start)
			writeErr(w, we)
			return
		}
		rep, err := body(r.Context(), req)
		b.served(start)
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, rep)
	}
	if op.Msg != 0 {
		b.frame = func(ctx context.Context, bc *binConn, reqID uint32, p []byte) {
			start := time.Now()
			observe := func() { b.dur.Observe(time.Since(start).Nanoseconds()) }
			req, err := op.DecodeReq(p)
			if err != nil {
				observe()
				bc.sendErr(reqID, badFrame(op.Msg, err))
				return
			}
			rep, err := body(ctx, req)
			observe()
			if err != nil {
				bc.sendErr(reqID, errorBody(err))
				return
			}
			bc.send(reqID, func(dst []byte) []byte { return op.AppendRep(dst, reqID, rep) })
		}
	}
	return b
}

// ops binds every unary operation of the wire table to its body.
func (s *Server) ops() []*binding {
	return []*binding{
		bind(wire.OpEstablish, s.establish),
		bind(wire.OpEstablishAll, s.establishAll),
		bind(wire.OpMulticast, s.multicast),
		bind(wire.OpFail, s.fail),
		bind(wire.OpRelease, s.release),
		bind(wire.OpReconfigure, s.reconfigure),
		bind(wire.OpStats, s.stats),
		bind(wire.OpChannels, s.channels),
		bind(wire.OpMetrics, s.channelMetrics),
		bind(wire.OpHealthz, s.healthz),
		bind(wire.OpSpans, s.spans),
		bind(wire.OpCreateTopic, s.createTopic),
		bind(wire.OpListTopics, s.listTopics),
		bind(wire.OpPublish, s.publish),
	}
}

// maxBodyBytes caps an HTTP request body at the binary transport's frame
// payload cap: a request is the same message on either transport.
const maxBodyBytes = wire.MaxFramePayload

// decode reads an HTTP request into an op's request value: a POST's
// JSON body of at most maxBodyBytes, a GET's URL query. A failure is a
// bad_request envelope (an oversized body included).
func decode(w http.ResponseWriter, r *http.Request, method string, into any) *wire.Error {
	var err error
	if q, ok := into.(interface{ ParseQuery(url.Values) error }); ok {
		err = q.ParseQuery(r.URL.Query())
	} else if method == http.MethodPost {
		if err = json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(into); err != nil {
			err = fmt.Errorf("parsing request body: %w", err)
		}
	}
	if err != nil {
		return &wire.Error{Code: wire.CodeBadRequest, Message: err.Error()}
	}
	return nil
}

// channelReply assembles the wire description of an established handle.
func channelReply(ch *rtether.Channel) wire.ChannelReply {
	return wire.ChannelReply{
		ID:              uint32(ch.ID()),
		Budgets:         ch.Budgets(),
		GuaranteedDelay: ch.GuaranteedDelay(),
	}
}

// replyOf describes the channel an establish admitted, or passes its
// error on.
func replyOf(ch *rtether.Channel, err error) (wire.ChannelReply, error) {
	if err != nil {
		return wire.ChannelReply{}, err
	}
	return channelReply(ch), nil
}

// establish admits one channel through the coalescing front-end.
func (s *Server) establish(ctx context.Context, req wire.EstablishRequest) (wire.ChannelReply, error) {
	return replyOf(s.coal.establish(ctx, req.Spec.ChannelSpec()))
}

// multicast admits one multicast tree through the same coalescing
// front-end as unicast establishes: the tree joins the next merged
// flight and is decided inside one mixed kernel pass
// (Network.EstablishEachMixed) with its own atomic verdict — all links
// of all branches admit or roll back together. Verdicts reach the watch
// feed like unicast ones.
func (s *Server) multicast(ctx context.Context, req wire.EstablishMulticastRequest) (wire.ChannelReply, error) {
	return replyOf(s.coal.establishMulticast(ctx, req.Spec.MulticastSpec()))
}

// establishAll decides an explicit atomic batch, bypassing the
// coalescer (all-or-nothing is the caller's requested semantic), and
// publishes the verdicts. A batch whose reply would not fit in a binary
// frame, which a binary client could not read, is refused on either
// transport, its channels released in one decision before any verdict
// is published (on a closed network, Close released them).
func (s *Server) establishAll(_ context.Context, req wire.EstablishAllRequest) (wire.EstablishAllReply, error) {
	specs := make([]rtether.ChannelSpec, len(req.Specs))
	for i, sp := range req.Specs {
		specs[i] = sp.ChannelSpec()
	}
	chs, err := s.net.EstablishAll(specs)
	var rep wire.EstablishAllReply
	if err == nil {
		rep.Channels = make([]wire.ChannelReply, len(chs))
		for i, ch := range chs {
			rep.Channels[i] = channelReply(ch)
		}
		if size := wire.ChannelListLen(rep); size > wire.MaxFramePayload {
			_ = s.net.ReleaseAll(chs)
			err = &wire.Error{Code: wire.CodeBadRequest, Message: fmt.Sprintf(
				"rtetherd: the reply to %d channels would take %d bytes, past the frame limit of %d; split the batch", len(chs), size, wire.MaxFramePayload)}
		}
	}
	if err != nil {
		// Every rejection reaches the watch feed, whatever its class:
		// feasibility failures name the attributed spec, other errors
		// (no-route, invalid spec, closed) the batch's first.
		rejected := rtether.ChannelSpec{}
		if len(specs) > 0 {
			rejected = specs[0]
		}
		var ae *rtether.AdmissionError
		if errors.As(err, &ae) {
			rejected = ae.Spec
		}
		ws := wire.FromSpec(rejected)
		we := errorBody(err)
		s.metrics.rejects.Inc()
		s.hub.publish(wire.WatchEvent{Type: wire.EventReject, Spec: &ws, Error: we})
		return wire.EstablishAllReply{}, we
	}
	for i, ch := range chs {
		s.noteVerdict(specs[i], nil, ch, nil)
	}
	return rep, nil
}

// fail changes topology health: failing a trunk or switch triggers the
// batch re-route/re-admit recovery pass and the configured policy
// ladder; every channel outcome is published on the watch feed
// (reroute/degrade/preempt/lost) before the reply returns.
func (s *Server) fail(_ context.Context, req wire.FailRequest) (wire.FailReply, error) {
	var (
		rep   *rtether.FailoverReport
		err   error
		cause string
	)
	switch req.Kind {
	case "link":
		rep, err = s.net.SetLinkUp(rtether.SwitchID(req.A), rtether.SwitchID(req.B), req.Up)
		cause = fmt.Sprintf("trunk %d-%d %s", req.A, req.B, upDown(req.Up))
	case "switch":
		rep, err = s.net.SetSwitchUp(rtether.SwitchID(req.S), req.Up)
		cause = fmt.Sprintf("switch %d %s", req.S, upDown(req.Up))
	default:
		return wire.FailReply{}, &wire.Error{Code: wire.CodeBadRequest, Message: fmt.Sprintf("rtetherd: unknown fail kind %q (want \"link\" or \"switch\")", req.Kind)}
	}
	if err != nil {
		return wire.FailReply{}, err
	}
	s.logf("%s: %d affected", cause, rep.Affected)
	s.noteFailover(cause, rep)
	return wire.FromFailoverReport(rep), nil
}

// upDown renders a health flag for logs and watch causes.
func upDown(up bool) string {
	if up {
		return "up"
	}
	return "down"
}

// release frees one channel by ID.
func (s *Server) release(_ context.Context, req wire.ReleaseRequest) (wire.ReleaseReply, error) {
	ch := s.net.Lookup(rtether.ChannelID(req.ID))
	if ch == nil {
		return wire.ReleaseReply{}, unknownChannel(req.ID)
	}
	if err := ch.Release(); err != nil {
		return wire.ReleaseReply{}, err
	}
	s.noteRelease(rtether.ChannelID(req.ID))
	return wire.ReleaseReply{}, nil
}

// reconfigure applies the non-zero overrides of req to a unicast
// channel in one atomic decision that keeps its ID
// (rtether.Channel.Reconfigure), bypassing the coalescer: a refusal
// leaves the channel exactly as it was. The verdict reaches the watch
// feed as an admit event for the same ID, or a reject event. Multicast
// channels cannot be reconfigured over the wire.
func (s *Server) reconfigure(_ context.Context, req wire.ReconfigureRequest) (wire.ChannelReply, error) {
	ch := s.net.Lookup(rtether.ChannelID(req.ID))
	if ch == nil {
		return wire.ChannelReply{}, unknownChannel(req.ID)
	}
	if ch.Multicast() {
		return wire.ChannelReply{}, &wire.Error{Code: wire.CodeBadRequest, Message: fmt.Sprintf("rtetherd: multicast channel %d cannot be reconfigured; release and re-establish it", req.ID)}
	}
	spec := ch.Spec()
	if req.C != 0 {
		spec.C = req.C
	}
	if req.P != 0 {
		spec.P = req.P
	}
	if req.D != 0 {
		spec.D = req.D
	}
	err := ch.Reconfigure(rtether.EstablishReq{Spec: spec})
	if err != nil {
		s.noteVerdict(spec, nil, nil, err)
		return wire.ChannelReply{}, err
	}
	s.noteVerdict(spec, nil, ch, nil)
	return channelReply(ch), nil
}

// unknownChannel builds the 404 envelope for a channel ID.
func unknownChannel(id uint32) *wire.Error {
	return &wire.Error{Code: wire.CodeUnknownChannel, Message: fmt.Sprintf("rtetherd: unknown channel %d", id)}
}

// stats snapshots the admission and daemon counters.
func (s *Server) stats(context.Context, struct{}) (wire.StatsReply, error) {
	return wire.StatsReply{
		Admission: s.net.AdmissionStats(),
		Server: wire.ServerStats{
			Establishes: s.coal.establishes.Load(),
			Flights:     s.coal.flights.Load(),
			MaxMerged:   s.coal.maxMerged.Load(),
			Watchers:    int64(s.hub.count()),
			Channels:    int64(len(s.net.Channels())),
		},
	}, nil
}

// channels lists established channels.
func (s *Server) channels(context.Context, struct{}) (wire.ChannelsReply, error) {
	ids := s.net.Channels()
	rep := wire.ChannelsReply{Channels: make([]wire.ChannelInfo, 0, len(ids))}
	for _, id := range ids {
		ch := s.net.Lookup(id)
		if ch == nil {
			continue // raced a release
		}
		rep.Channels = append(rep.Channels, wire.ChannelInfo{
			ID:      uint32(id),
			Spec:    wire.FromSpec(ch.Spec()),
			Budgets: ch.Budgets(),
		})
	}
	return rep, nil
}

// channelMetrics reports one channel's delivery measurements.
func (s *Server) channelMetrics(_ context.Context, req wire.MetricsRequest) (wire.MetricsReply, error) {
	ch := s.net.Lookup(rtether.ChannelID(req.ID))
	if ch == nil {
		return wire.MetricsReply{}, unknownChannel(req.ID)
	}
	return wire.FromMetrics(ch.ID(), ch.Metrics()), nil
}

// healthz answers liveness probes with an operational summary: uptime,
// build identity, the watch feed's sequence high-water mark, and the
// open channel / topic counts.
func (s *Server) healthz(context.Context, struct{}) (wire.HealthzReply, error) {
	return wire.HealthzReply{
		Status:     "ok",
		UptimeSecs: time.Since(s.start).Seconds(),
		GoVersion:  runtime.Version(),
		Build:      buildID(),
		WatchSeq:   s.hub.lastSeq(),
		Channels:   len(s.net.Channels()),
		Topics:     s.topics.Len(),
	}, nil
}

// spans dumps the flight recorder, oldest first.
func (s *Server) spans(context.Context, struct{}) (wire.SpansReply, error) {
	spans := s.metrics.spans.Snapshot()
	rep := wire.SpansReply{Spans: make([]wire.SpanInfo, len(spans))}
	for i, sp := range spans {
		rep.Spans[i] = wire.SpanInfo{
			Flight:        sp.Flight,
			StartUnixNano: sp.Start.UnixNano(),
			Merged:        sp.Merged,
			WaitNs:        sp.WaitNs,
			AdmitNs:       sp.AdmitNs,
			VerifyNs:      sp.VerifyNs,
			PublishNs:     sp.PublishNs,
			Accepted:      sp.Accepted,
			Rejected:      sp.Rejected,
		}
	}
	return rep, nil
}

// createTopic declares a pub/sub topic. The topic reserves nothing
// until its first subscriber joins.
func (s *Server) createTopic(_ context.Context, req wire.CreateTopicRequest) (wire.TopicInfo, error) {
	if err := s.topics.Create(req.Name, rtether.NodeID(req.Src), req.C, req.P, req.D); err != nil {
		return wire.TopicInfo{}, err
	}
	s.logf("topic %q src=%d c=%d p=%d d=%d", req.Name, req.Src, req.C, req.P, req.D)
	return wire.TopicInfo{Name: req.Name, Src: req.Src, C: req.C, P: req.P, D: req.D}, nil
}

// listTopics lists every topic sorted by name.
func (s *Server) listTopics(context.Context, struct{}) (wire.TopicsReply, error) {
	infos := s.topics.Snapshot()
	rep := wire.TopicsReply{Topics: make([]wire.TopicInfo, len(infos))}
	for i, info := range infos {
		ti := wire.TopicInfo{
			Name: info.Name, Src: uint16(info.Src),
			C: info.C, P: info.P, D: info.D,
			ChannelID: uint32(info.ChannelID),
			Published: info.Published,
		}
		for _, n := range info.Subscribers {
			ti.Subscribers = append(ti.Subscribers, uint16(n))
		}
		rep.Topics[i] = ti
	}
	return rep, nil
}

// publish pushes one message to a topic's subscribers.
func (s *Server) publish(_ context.Context, req wire.PublishRequest) (wire.PublishReply, error) {
	seq, delivered, err := s.topics.Publish(req.Topic, req.Payload)
	if err != nil {
		return wire.PublishReply{}, err
	}
	return wire.PublishReply{Seq: seq, Delivered: delivered}, nil
}

// handleWatch streams admission events until the client disconnects,
// the stream falls behind, or the server closes.
func (s *Server) handleWatch(w http.ResponseWriter, r *http.Request) {
	sub := s.hub.subscribe()
	if sub == nil {
		writeErr(w, &wire.Error{Code: wire.CodeClosed, Message: "rtetherd: server is closed"})
		return
	}
	defer s.hub.unsubscribe(sub)
	stream(w, r, sub.events, sub.dropped)
}

// handleSubscribe joins a node to a topic and streams its feed
// (GET /v1/topics/subscribe?topic=T&node=N). The join may grow the
// topic's multicast tree — the re-admission verdict comes back as this
// response's status (409 with the failing branch on rejection).
// Disconnecting unsubscribes, shrinking the tree again.
func (s *Server) handleSubscribe(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("topic")
	rawNode := r.URL.Query().Get("node")
	node, err := strconv.ParseUint(rawNode, 10, 16)
	if err != nil {
		writeErr(w, &wire.Error{Code: wire.CodeBadRequest, Message: fmt.Sprintf("rtetherd: bad subscriber node %q", rawNode)})
		return
	}
	sub, err := s.topics.Subscribe(name, rtether.NodeID(node))
	if err != nil {
		writeErr(w, err)
		return
	}
	defer s.topics.Unsubscribe(sub)
	s.logf("subscribe node %d to topic %q", node, name)
	stream(w, r, sub.Events, sub.Dropped)
}

// stream writes events as newline-delimited JSON until the feed drops
// the stream, a write fails, or the client goes away.
func stream[T any](w http.ResponseWriter, r *http.Request, events <-chan T, dropped <-chan struct{}) {
	rc := http.NewResponseController(w)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	_ = rc.Flush()
	enc := json.NewEncoder(w)
	for {
		select {
		case ev := <-events:
			if err := enc.Encode(ev); err != nil {
				return
			}
			_ = rc.Flush()
		case <-dropped:
			return
		case <-r.Context().Done():
			return
		}
	}
}
