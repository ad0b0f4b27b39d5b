// Package server implements rtetherd's HTTP/JSON admission service: a
// long-running daemon hosting one rtether.Network and serving channel
// establishment, release, reconfiguration, stats, per-channel metrics
// and a streaming event feed to many concurrent clients over the wire
// schema of rtether/wire (prose reference: docs/server.md).
//
// The heart is the coalescing front-end: concurrent establish requests
// that arrive while a merged admission pass is in flight (or within
// Config.CoalesceWindow) are batched into one per-spec kernel decision
// (Network.EstablishEachMixed), so N clients cost approximately one
// repartition and one verification sweep instead of N — while every
// client still receives exactly its own verdict, with the full
// *rtether.AdmissionError diagnostics round-tripped on rejection.
package server

import (
	"encoding/json"
	"errors"
	"log"
	"net"
	"net/http"
	"runtime/debug"
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
	// frames maps each binary request type to its op (mountRoutes).
	frames map[wire.MsgType]*binding
}

// New builds a Server over the given network. It starts no goroutine
// unless Config.HeartbeatInterval asks for heartbeats.
func New(cfg Config) *Server {
	s := &Server{
		net:    cfg.Network,
		mux:    http.NewServeMux(),
		hub:    newHub(),
		log:    cfg.Log,
		start:  time.Now(),
		hbQuit: make(chan struct{}),
	}
	s.coal = newCoalescer(cfg.Network, cfg.CoalesceWindow, s.noteVerdict, s.noteRelease, s.onFlight)
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
	s.mountRoutes(s.ops())
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

// Close fails queued establishes with the "closed" error, waits for the
// admission flight in progress to land, and disconnects every watch
// stream. It does not close the hosted Network. Close is idempotent.
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
	var (
		we *wire.Error
		ae *rtether.AdmissionError
	)
	switch {
	case errors.As(err, &we):
		return we // an op body's own envelope
	case errors.As(err, &ae):
		return &wire.Error{Code: wire.CodeInfeasible, Message: err.Error(), Admission: wire.FromAdmissionError(ae)}
	case errors.Is(err, rtether.ErrClosed):
		return &wire.Error{Code: wire.CodeClosed, Message: err.Error()}
	case errors.Is(err, rtether.ErrIDsExhausted):
		return &wire.Error{Code: wire.CodeIDsExhausted, Message: err.Error()}
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
	case wire.CodeInfeasible, wire.CodeDuplicateTopic, wire.CodeIDsExhausted:
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
	we := errorBody(err)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(statusOf(we.Code))
	_ = json.NewEncoder(w).Encode(wire.Envelope{Err: we})
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
