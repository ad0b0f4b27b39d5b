// Package server implements rtetherd's HTTP/JSON admission service: a
// long-running daemon hosting one rtether.Network and serving channel
// establishment, release, reconfiguration, stats, per-channel metrics
// and a streaming event feed to many concurrent clients over the wire
// schema of rtether/wire (prose reference: docs/server.md).
//
// The heart is the coalescing front-end: concurrent POST /v1/establish
// requests that arrive while a merged admission pass is in flight (or
// within Config.CoalesceWindow) are batched into one per-spec kernel
// decision (Network.EstablishEach), so N clients cost approximately one
// repartition and one verification sweep instead of N — while every
// client still receives exactly its own verdict, with the full
// *rtether.AdmissionError diagnostics round-tripped on rejection.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/pubsub"
	"repro/internal/topo"
	"repro/rtether"
	"repro/rtether/wire"
)

// Config assembles a Server.
type Config struct {
	// Network is the hosted network. The Server does not close it;
	// ownership stays with the caller (cmd/rtetherd closes it after
	// draining HTTP).
	Network *rtether.Network
	// CoalesceWindow additionally holds the first establish request of
	// a batch back up to this long so more concurrent requests can
	// join. 0 (the default, recommended) adds no idle latency: a batch
	// merges exactly the requests that queued while the previous merged
	// pass ran.
	CoalesceWindow time.Duration
	// MaxBatch caps how many establish requests merge into one pass
	// (default 1024).
	MaxBatch int
	// HeartbeatInterval, when positive, publishes a periodic heartbeat
	// event on the /v1/watch feed carrying the feed's sequence
	// high-water mark and the current channel count. 0 disables
	// heartbeats.
	HeartbeatInterval time.Duration
	// SpanRingSize caps the flight recorder served by GET /v1/spans
	// (default 256).
	SpanRingSize int
	// Log receives one line per lifecycle event; nil disables logging.
	Log *log.Logger
}

// Server is the HTTP admission service. Create it with New, mount
// Handler, and Close it when done.
type Server struct {
	net       *rtether.Network
	mux       *http.ServeMux
	coal      *coalescer
	hub       *hub
	topics    *pubsub.Registry
	metrics   *serverMetrics
	log       *log.Logger
	start     time.Time
	hbQuit    chan struct{}
	closeOnce sync.Once

	// Binary transport state (binary.go): the listeners ServeBinary is
	// draining and the live connections, torn down on Close.
	binMu        sync.Mutex
	binListeners []net.Listener
	binConns     map[net.Conn]struct{}
	binClosed    bool
}

// New builds a Server over the given network and starts its coalescing
// dispatcher.
func New(cfg Config) *Server {
	s := &Server{
		net:    cfg.Network,
		mux:    http.NewServeMux(),
		hub:    newHub(),
		log:    cfg.Log,
		start:  time.Now(),
		hbQuit: make(chan struct{}),
	}
	s.coal = newCoalescer(cfg.Network, cfg.CoalesceWindow, cfg.MaxBatch, s.noteVerdict, s.noteRelease, s.onFlight)
	// Topic channel lifecycle republishes on the /v1/watch feed so a
	// watcher sees membership-driven re-admissions like any other verdict.
	s.topics = pubsub.NewRegistry(cfg.Network, pubsub.Hooks{
		Admitted: func(topic string, ch *rtether.Channel) {
			ws := wire.FromSpec(ch.Spec())
			s.logf("admit RT#%d topic %q sinks=%v budgets=%v", ch.ID(), topic, ch.Sinks(), ch.Budgets())
			s.metrics.admits.Inc()
			s.metrics.topicAdmits.Inc()
			s.hub.publish(wire.WatchEvent{Type: wire.EventAdmit, ID: uint32(ch.ID()), Spec: &ws, Budgets: ch.Budgets()})
		},
		Released: func(topic string, id rtether.ChannelID) {
			s.logf("release RT#%d topic %q", id, topic)
			s.metrics.releases.Inc()
			s.hub.publish(wire.WatchEvent{Type: wire.EventRelease, ID: uint32(id)})
		},
	})
	s.metrics = newServerMetrics(s, cfg.SpanRingSize)
	s.mountRoutes([]route{
		{"POST /v1/establish", s.handleEstablish},
		{"POST /v1/establishAll", s.handleEstablishAll},
		{"POST /v1/multicast", s.handleEstablishMulticast},
		{"POST /v1/fail", s.handleFail},
		{"POST /v1/release", s.handleRelease},
		{"POST /v1/reconfigure", s.handleReconfigure},
		{"GET /v1/stats", s.handleStats},
		{"GET /v1/channels", s.handleChannels},
		{"GET /v1/metrics", s.handleMetrics},
		{"GET /v1/watch", s.handleWatch},
		{"GET /v1/healthz", s.handleHealthz},
		{"GET /v1/spans", s.handleSpans},
		{"POST /v1/topics", s.handleCreateTopic},
		{"GET /v1/topics", s.handleListTopics},
		{"POST /v1/topics/publish", s.handlePublish},
		{"GET /v1/topics/subscribe", s.handleSubscribe},
	})
	// The exposition endpoint itself is unwrapped: scrapes should not
	// perturb the request metrics they read.
	s.mux.HandleFunc("GET /metrics", s.handlePromMetrics)
	if cfg.HeartbeatInterval > 0 {
		go s.heartbeatLoop(cfg.HeartbeatInterval)
	}
	return s
}

// Handler returns the HTTP handler serving the /v1 API.
func (s *Server) Handler() http.Handler { return s.mux }

// Close stops the coalescing dispatcher (queued establishes fail with
// the "closed" error) and disconnects every watch stream. It does not
// close the hosted Network. Close is idempotent.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		close(s.hbQuit)
		s.coal.close()
		s.topics.Close()
		s.hub.close()
		s.closeBinary()
		s.logf("closed: %d establishes in %d flights (max merged %d)",
			s.coal.establishes.Load(), s.coal.flights.Load(), s.coal.maxMerged.Load())
	})
}

// logf writes one log line when logging is configured.
func (s *Server) logf(format string, args ...any) {
	if s.log != nil {
		s.log.Printf(format, args...)
	}
}

// noteVerdict publishes one coalesced establish verdict on the watch
// feed and the log. sinks is non-nil for multicast requests.
func (s *Server) noteVerdict(spec rtether.ChannelSpec, sinks []rtether.NodeID, ch *rtether.Channel, err error) {
	ws := wire.FromSpec(spec)
	if ch != nil {
		budgets := ch.Budgets()
		if len(sinks) > 0 {
			s.logf("admit RT#%d %v sinks=%v budgets=%v", ch.ID(), spec, sinks, budgets)
		} else {
			s.logf("admit RT#%d %v budgets=%v", ch.ID(), spec, budgets)
		}
		s.metrics.admits.Inc()
		s.hub.publish(wire.WatchEvent{Type: wire.EventAdmit, ID: uint32(ch.ID()), Spec: &ws, Budgets: budgets})
		return
	}
	s.logf("reject %v: %v", spec, err)
	s.metrics.rejects.Inc()
	s.hub.publish(wire.WatchEvent{Type: wire.EventReject, Spec: &ws, Error: errorBody(err)})
}

// noteFailover publishes every channel outcome of a failure-recovery
// pass on the watch feed and the log.
func (s *Server) noteFailover(cause string, rep *rtether.FailoverReport) {
	for _, oc := range rep.Outcomes {
		ws := wire.FromSpec(oc.Spec)
		ev := wire.WatchEvent{ID: uint32(oc.ID), Spec: &ws, Cause: cause}
		switch oc.Outcome {
		case rtether.Rerouted:
			ev.Type = wire.EventReroute
		case rtether.Degraded:
			ev.Type = wire.EventDegrade
			ev.NewD = oc.NewD
		case rtether.Preempted:
			ev.Type = wire.EventPreempt
		case rtether.Lost:
			ev.Type = wire.EventLost
			if oc.Err != nil {
				ev.Error = errorBody(oc.Err)
			}
		}
		s.logf("%s RT#%d (%s)", ev.Type, oc.ID, cause)
		s.hub.publish(ev)
	}
}

// noteRelease publishes one release on the watch feed and the log.
func (s *Server) noteRelease(id rtether.ChannelID) {
	s.logf("release RT#%d", id)
	s.metrics.releases.Inc()
	s.hub.publish(wire.WatchEvent{Type: wire.EventRelease, ID: uint32(id)})
}

// errorBody classifies an error into the wire envelope: the code, the
// message, and — for feasibility rejections — the full admission
// diagnostics.
func errorBody(err error) *wire.Error {
	var ae *rtether.AdmissionError
	switch {
	case errors.As(err, &ae):
		return &wire.Error{Code: wire.CodeInfeasible, Message: err.Error(), Admission: wire.FromAdmissionError(ae)}
	case errors.Is(err, rtether.ErrClosed):
		return &wire.Error{Code: wire.CodeClosed, Message: err.Error()}
	case errors.Is(err, rtether.ErrChannelClosed):
		// A racing duplicate release/reconfigure lost to the winner after
		// both passed Lookup — to the loser the channel is simply gone.
		return &wire.Error{Code: wire.CodeUnknownChannel, Message: err.Error()}
	case errors.Is(err, topo.ErrNoRoute), errors.Is(err, topo.ErrUnknownNode), errors.Is(err, netsim.ErrUnknownNode):
		return &wire.Error{Code: wire.CodeNoRoute, Message: err.Error()}
	case errors.Is(err, topo.ErrUnknownSwitch), errors.Is(err, topo.ErrUnknownLink),
		errors.Is(err, rtether.ErrNoFabric), errors.Is(err, rtether.ErrNoNodeLinks):
		return &wire.Error{Code: wire.CodeBadRequest, Message: err.Error()}
	case errors.Is(err, pubsub.ErrUnknownTopic):
		return &wire.Error{Code: wire.CodeUnknownTopic, Message: err.Error()}
	case errors.Is(err, pubsub.ErrDuplicateTopic):
		return &wire.Error{Code: wire.CodeDuplicateTopic, Message: err.Error()}
	case errors.Is(err, pubsub.ErrClosed):
		return &wire.Error{Code: wire.CodeClosed, Message: err.Error()}
	case isSpecError(err):
		return &wire.Error{Code: wire.CodeInvalidSpec, Message: err.Error()}
	default:
		return &wire.Error{Code: wire.CodeInternal, Message: err.Error()}
	}
}

// isSpecError reports whether err is a channel-spec validation failure.
func isSpecError(err error) bool {
	for _, sentinel := range []error{
		core.ErrSelfLoop, core.ErrNonPositiveC, core.ErrNonPositiveP,
		core.ErrCExceedsP, core.ErrDeadlineTooShort,
		core.ErrNoSinks, core.ErrDuplicateSink,
		topo.ErrDeadlineTooShortForRoute,
	} {
		if errors.Is(err, sentinel) {
			return true
		}
	}
	return false
}

// statusOf maps a wire error code to its HTTP status (documented in
// docs/server.md).
func statusOf(code string) int {
	switch code {
	case wire.CodeBadRequest:
		return http.StatusBadRequest
	case wire.CodeInvalidSpec, wire.CodeNoRoute:
		return http.StatusUnprocessableEntity
	case wire.CodeInfeasible, wire.CodeDuplicateTopic:
		return http.StatusConflict
	case wire.CodeUnknownChannel, wire.CodeUnknownTopic:
		return http.StatusNotFound
	case wire.CodeClosed:
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// writeJSON emits a 200 response body.
func writeJSON(w http.ResponseWriter, body any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(body)
}

// writeErr emits the error envelope for err.
func writeErr(w http.ResponseWriter, err error) {
	writeWireErr(w, errorBody(err))
}

// writeWireErr emits a pre-built error envelope.
func writeWireErr(w http.ResponseWriter, we *wire.Error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(statusOf(we.Code))
	_ = json.NewEncoder(w).Encode(wire.Envelope{Err: we})
}

// maxBodyBytes caps an HTTP request body at the binary transport's frame
// payload cap: a request is the same message on either transport.
const maxBodyBytes = wire.MaxFramePayload

// decode parses a JSON request body of at most maxBodyBytes, reporting a
// bad_request envelope on failure (an oversized body included).
func decode(w http.ResponseWriter, r *http.Request, into any) bool {
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(into); err != nil {
		writeWireErr(w, &wire.Error{Code: wire.CodeBadRequest, Message: fmt.Sprintf("parsing request body: %v", err)})
		return false
	}
	return true
}

// channelReply assembles the wire description of an established handle.
func channelReply(ch *rtether.Channel) wire.ChannelReply {
	return wire.ChannelReply{
		ID:              uint32(ch.ID()),
		Budgets:         ch.Budgets(),
		GuaranteedDelay: ch.GuaranteedDelay(),
	}
}

// handleEstablish admits one channel through the coalescing front-end.
func (s *Server) handleEstablish(w http.ResponseWriter, r *http.Request) {
	var req wire.EstablishRequest
	if !decode(w, r, &req) {
		return
	}
	ch, err := s.coal.establish(r.Context(), req.Spec.ChannelSpec())
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, channelReply(ch))
}

// handleEstablishMulticast admits one multicast tree through the same
// coalescing front-end as unicast establishes: the tree joins the next
// merged flight and is decided inside one mixed kernel pass
// (Network.EstablishEachMixed) with its own atomic verdict — all links
// of all branches admit or roll back together. Verdicts reach the
// watch feed like unicast ones.
func (s *Server) handleEstablishMulticast(w http.ResponseWriter, r *http.Request) {
	var req wire.EstablishMulticastRequest
	if !decode(w, r, &req) {
		return
	}
	ch, err := s.coal.establishMulticast(r.Context(), req.Spec.MulticastSpec())
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, channelReply(ch))
}

// handleFail changes topology health (POST /v1/fail): failing a trunk
// or switch triggers the batch re-route/re-admit recovery pass and the
// configured policy ladder; every channel outcome is published on the
// watch feed (reroute/degrade/preempt/lost) before the reply returns.
func (s *Server) handleFail(w http.ResponseWriter, r *http.Request) {
	var req wire.FailRequest
	if !decode(w, r, &req) {
		return
	}
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
		writeWireErr(w, &wire.Error{Code: wire.CodeBadRequest, Message: fmt.Sprintf("rtetherd: unknown fail kind %q (want \"link\" or \"switch\")", req.Kind)})
		return
	}
	if err != nil {
		writeErr(w, err)
		return
	}
	s.logf("%s: %d affected", cause, rep.Affected)
	s.noteFailover(cause, rep)
	reply := wire.FailReply{Affected: rep.Affected}
	for _, oc := range rep.Outcomes {
		reply.Outcomes = append(reply.Outcomes, wire.FailOutcome{
			ID:      uint32(oc.ID),
			Outcome: oc.Outcome.String(),
			NewD:    oc.NewD,
		})
	}
	writeJSON(w, reply)
}

// upDown renders a health flag for logs and watch causes.
func upDown(up bool) string {
	if up {
		return "up"
	}
	return "down"
}

// handleEstablishAll admits an explicit atomic batch, bypassing the
// coalescer: all-or-nothing is the caller's requested semantic.
func (s *Server) handleEstablishAll(w http.ResponseWriter, r *http.Request) {
	var req wire.EstablishAllRequest
	if !decode(w, r, &req) {
		return
	}
	specs := make([]rtether.ChannelSpec, len(req.Specs))
	for i, sp := range req.Specs {
		specs[i] = sp.ChannelSpec()
	}
	rep, we := s.doEstablishAll(specs)
	if we != nil {
		writeWireErr(w, we)
		return
	}
	writeJSON(w, rep)
}

// doEstablishAll decides an atomic batch and publishes the verdicts —
// the transport-independent core shared by the HTTP handler and the
// binary dispatcher.
func (s *Server) doEstablishAll(specs []rtether.ChannelSpec) (wire.EstablishAllReply, *wire.Error) {
	chs, err := s.net.EstablishAll(specs)
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
	rep := wire.EstablishAllReply{Channels: make([]wire.ChannelReply, len(chs))}
	for i, ch := range chs {
		rep.Channels[i] = channelReply(ch)
		s.noteVerdict(specs[i], nil, ch, nil)
	}
	return rep, nil
}

// handleRelease frees one channel by ID.
func (s *Server) handleRelease(w http.ResponseWriter, r *http.Request) {
	var req wire.ReleaseRequest
	if !decode(w, r, &req) {
		return
	}
	if we := s.doRelease(req.ID); we != nil {
		writeWireErr(w, we)
		return
	}
	writeJSON(w, wire.ReleaseReply{})
}

// doRelease frees one channel by ID; nil means success. Shared by the
// HTTP handler and the binary dispatcher.
func (s *Server) doRelease(id uint32) *wire.Error {
	ch := s.net.Lookup(rtether.ChannelID(id))
	if ch == nil {
		return unknownChannel(id)
	}
	if err := ch.Release(); err != nil {
		return errorBody(err)
	}
	s.noteRelease(rtether.ChannelID(id))
	return nil
}

// handleReconfigure replaces a channel's {C, P, D}.
func (s *Server) handleReconfigure(w http.ResponseWriter, r *http.Request) {
	var req wire.ReconfigureRequest
	if !decode(w, r, &req) {
		return
	}
	rep, we := s.doReconfigure(req)
	if we != nil {
		writeWireErr(w, we)
		return
	}
	writeJSON(w, rep)
}

// doReconfigure applies the non-zero overrides of req to a unicast
// channel in one atomic decision that keeps its ID
// (rtether.Channel.Reconfigure), bypassing the coalescer: a refusal
// leaves the channel exactly as it was. The verdict reaches the watch
// feed as an admit event for the same ID, or a reject event. Multicast
// channels cannot be reconfigured over the wire. Shared by the HTTP
// handler and the binary dispatcher.
func (s *Server) doReconfigure(req wire.ReconfigureRequest) (wire.ChannelReply, *wire.Error) {
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
		return wire.ChannelReply{}, errorBody(err)
	}
	s.noteVerdict(spec, nil, ch, nil)
	return channelReply(ch), nil
}

// unknownChannel builds the 404 envelope for a channel ID.
func unknownChannel(id uint32) *wire.Error {
	return &wire.Error{Code: wire.CodeUnknownChannel, Message: fmt.Sprintf("rtetherd: unknown channel %d", id)}
}

// handleStats reports admission and daemon counters.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.statsReply())
}

// statsReply snapshots the admission and daemon counters. Shared by the
// HTTP handler and the binary dispatcher.
func (s *Server) statsReply() wire.StatsReply {
	return wire.StatsReply{
		Admission: s.net.AdmissionStats(),
		Server: wire.ServerStats{
			Establishes: s.coal.establishes.Load(),
			Flights:     s.coal.flights.Load(),
			MaxMerged:   s.coal.maxMerged.Load(),
			Watchers:    int64(s.hub.count()),
			Channels:    int64(len(s.net.Channels())),
		},
	}
}

// handleChannels lists established channels.
func (s *Server) handleChannels(w http.ResponseWriter, r *http.Request) {
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
	writeJSON(w, rep)
}

// handleMetrics reports one channel's delivery measurements.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	raw := r.URL.Query().Get("id")
	id, err := strconv.ParseUint(raw, 10, 32)
	if err != nil {
		writeWireErr(w, &wire.Error{Code: wire.CodeBadRequest, Message: fmt.Sprintf("rtetherd: bad channel id %q", raw)})
		return
	}
	ch := s.net.Lookup(rtether.ChannelID(id))
	if ch == nil {
		writeWireErr(w, unknownChannel(uint32(id)))
		return
	}
	writeJSON(w, wire.FromMetrics(ch.ID(), ch.Metrics()))
}

// handleWatch streams admission events as newline-delimited JSON until
// the client disconnects, the stream falls behind, or the server
// closes.
func (s *Server) handleWatch(w http.ResponseWriter, r *http.Request) {
	sub := s.hub.subscribe()
	if sub == nil {
		writeWireErr(w, &wire.Error{Code: wire.CodeClosed, Message: "rtetherd: server is closed"})
		return
	}
	defer s.hub.unsubscribe(sub)
	flusher, _ := w.(http.Flusher)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	if flusher != nil {
		flusher.Flush()
	}
	enc := json.NewEncoder(w)
	for {
		select {
		case ev := <-sub.events:
			if err := enc.Encode(ev); err != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		case <-sub.dropped:
			return
		case <-r.Context().Done():
			return
		}
	}
}

// handleHealthz answers liveness probes with a JSON operational
// summary: uptime, build identity, the watch feed's sequence high-water
// mark, and the open channel / topic counts.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, wire.HealthzReply{
		Status:     "ok",
		UptimeSecs: time.Since(s.start).Seconds(),
		GoVersion:  runtime.Version(),
		Build:      buildID(),
		WatchSeq:   s.hub.lastSeq(),
		Channels:   len(s.net.Channels()),
		Topics:     s.topics.Len(),
	})
}

// buildID describes the running binary from the embedded build info:
// the main module version, plus the VCS revision when the binary was
// built inside a checkout.
func buildID() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return ""
	}
	id := info.Main.Version
	for _, kv := range info.Settings {
		if kv.Key == "vcs.revision" {
			rev := kv.Value
			if len(rev) > 12 {
				rev = rev[:12]
			}
			id += "+" + rev
			break
		}
	}
	return id
}

// handleCreateTopic declares a pub/sub topic (POST /v1/topics). The
// topic reserves nothing until its first subscriber joins.
func (s *Server) handleCreateTopic(w http.ResponseWriter, r *http.Request) {
	var req wire.CreateTopicRequest
	if !decode(w, r, &req) {
		return
	}
	if err := s.topics.Create(req.Name, rtether.NodeID(req.Src), req.C, req.P, req.D); err != nil {
		writeErr(w, err)
		return
	}
	s.logf("topic %q src=%d c=%d p=%d d=%d", req.Name, req.Src, req.C, req.P, req.D)
	writeJSON(w, wire.TopicInfo{Name: req.Name, Src: req.Src, C: req.C, P: req.P, D: req.D})
}

// handleListTopics lists every topic sorted by name (GET /v1/topics).
func (s *Server) handleListTopics(w http.ResponseWriter, r *http.Request) {
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
	writeJSON(w, rep)
}

// handlePublish pushes one message to a topic's subscribers
// (POST /v1/topics/publish).
func (s *Server) handlePublish(w http.ResponseWriter, r *http.Request) {
	var req wire.PublishRequest
	if !decode(w, r, &req) {
		return
	}
	seq, delivered, err := s.topics.Publish(req.Topic, req.Payload)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, wire.PublishReply{Seq: seq, Delivered: delivered})
}

// handleSubscribe joins a node to a topic and streams its feed as
// newline-delimited JSON (GET /v1/topics/subscribe?topic=T&node=N). The
// join may grow the topic's multicast tree — the re-admission verdict
// comes back as this response's status (409 with the failing branch on
// rejection). Disconnecting unsubscribes, shrinking the tree again.
func (s *Server) handleSubscribe(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("topic")
	rawNode := r.URL.Query().Get("node")
	node, err := strconv.ParseUint(rawNode, 10, 16)
	if err != nil {
		writeWireErr(w, &wire.Error{Code: wire.CodeBadRequest, Message: fmt.Sprintf("rtetherd: bad subscriber node %q", rawNode)})
		return
	}
	sub, err := s.topics.Subscribe(name, rtether.NodeID(node))
	if err != nil {
		writeErr(w, err)
		return
	}
	defer s.topics.Unsubscribe(sub)
	s.logf("subscribe node %d to topic %q", node, name)
	flusher, _ := w.(http.Flusher)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	if flusher != nil {
		flusher.Flush()
	}
	enc := json.NewEncoder(w)
	for {
		select {
		case ev := <-sub.Events:
			if err := enc.Encode(ev); err != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		case <-sub.Dropped:
			return
		case <-r.Context().Done():
			return
		}
	}
}
