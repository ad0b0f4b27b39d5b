// Package wire defines the JSON wire schema of the rtetherd admission
// service: the request/response bodies of every /v1 endpoint, the error
// envelope, and the /v1/watch event stream. It is shared by the server
// (internal/server), the typed Go client (rtether/client) and through
// it every caller, so the schema exists in exactly one place;
// docs/server.md is the prose reference for the same contract.
//
// All channel quantities use the scenario-format field names (src, dst,
// c, p, d — see docs/scenario-format.md) and all times are integer
// timeslots, exactly as in the rtether API. Conversions to and from the
// rtether types are lossless: in particular a feasibility rejection's
// full *rtether.AdmissionError — link, direction, hop, utilization,
// slack, reason — survives the encode/decode round trip bit for bit.
package wire

import (
	"fmt"

	"repro/rtether"
)

// Spec is the wire form of rtether.ChannelSpec.
type Spec struct {
	Src uint16 `json:"src"`
	Dst uint16 `json:"dst"`
	C   int64  `json:"c"`
	P   int64  `json:"p"`
	D   int64  `json:"d"`
	// Priority orders channels for the survivability policy ladder
	// (higher is more important; 0, the default, is lowest). Absent on
	// the wire when zero, so pre-priority peers interoperate unchanged.
	Priority int32 `json:"priority,omitempty"`
}

// FromSpec converts a rtether.ChannelSpec to its wire form.
func FromSpec(s rtether.ChannelSpec) Spec {
	return Spec{Src: uint16(s.Src), Dst: uint16(s.Dst), C: s.C, P: s.P, D: s.D, Priority: s.Priority}
}

// ChannelSpec converts the wire form back to a rtether.ChannelSpec.
func (s Spec) ChannelSpec() rtether.ChannelSpec {
	return rtether.ChannelSpec{
		Src: rtether.NodeID(s.Src), Dst: rtether.NodeID(s.Dst),
		C: s.C, P: s.P, D: s.D, Priority: s.Priority,
	}
}

// MulticastSpec is the wire form of rtether.MulticastSpec: one source,
// the ordered sink set, and a single {c, p, d} contract shared by the
// whole distribution tree.
type MulticastSpec struct {
	Src   uint16   `json:"src"`
	Sinks []uint16 `json:"sinks"`
	C     int64    `json:"c"`
	P     int64    `json:"p"`
	D     int64    `json:"d"`
	// Priority is as in Spec: survivability ordering, 0 = lowest.
	Priority int32 `json:"priority,omitempty"`
}

// FromMulticastSpec converts a rtether.MulticastSpec to its wire form.
func FromMulticastSpec(s rtether.MulticastSpec) MulticastSpec {
	sinks := make([]uint16, len(s.Sinks))
	for i, n := range s.Sinks {
		sinks[i] = uint16(n)
	}
	return MulticastSpec{Src: uint16(s.Src), Sinks: sinks, C: s.C, P: s.P, D: s.D, Priority: s.Priority}
}

// MulticastSpec converts the wire form back to a rtether.MulticastSpec.
func (s MulticastSpec) MulticastSpec() rtether.MulticastSpec {
	sinks := make([]rtether.NodeID, len(s.Sinks))
	for i, n := range s.Sinks {
		sinks[i] = rtether.NodeID(n)
	}
	return rtether.MulticastSpec{Src: rtether.NodeID(s.Src), Sinks: sinks, C: s.C, P: s.P, D: s.D, Priority: s.Priority}
}

// AdmissionError is the wire form of *rtether.AdmissionError, carried
// inside the error envelope of a feasibility rejection.
type AdmissionError struct {
	Spec        Spec    `json:"spec"`
	Link        string  `json:"link"`
	Node        uint16  `json:"node"`
	Dir         string  `json:"dir"` // "up" | "down" | "trunk"
	Hop         int     `json:"hop"`
	Utilization float64 `json:"utilization"`
	Slack       int64   `json:"slack"`
	Reason      string  `json:"reason"`
	// Branch and Sink attribute a multicast rejection to the failing
	// tree branch (-1 / 0 on unicast rejections); see
	// rtether.AdmissionError.
	Branch int    `json:"branch"`
	Sink   uint16 `json:"sink"`
}

// FromAdmissionError converts a typed rejection to its wire form.
func FromAdmissionError(e *rtether.AdmissionError) *AdmissionError {
	return &AdmissionError{
		Spec:        FromSpec(e.Spec),
		Link:        e.Link,
		Node:        uint16(e.Node),
		Dir:         e.Dir.String(),
		Hop:         e.Hop,
		Utilization: e.Utilization,
		Slack:       e.Slack,
		Reason:      e.Reason,
		Branch:      e.Branch,
		Sink:        uint16(e.Sink),
	}
}

// AdmissionError converts the wire form back to the typed rejection the
// in-process API returns, so remote callers can errors.As / errors.Is
// against it exactly as local ones do.
func (w *AdmissionError) AdmissionError() *rtether.AdmissionError {
	return &rtether.AdmissionError{
		Spec:        w.Spec.ChannelSpec(),
		Link:        w.Link,
		Node:        rtether.NodeID(w.Node),
		Dir:         dirFromString(w.Dir),
		Hop:         w.Hop,
		Utilization: w.Utilization,
		Slack:       w.Slack,
		Reason:      w.Reason,
		Branch:      w.Branch,
		Sink:        rtether.NodeID(w.Sink),
	}
}

// dirFromString parses a wire direction; unknown strings map to DirUp
// (the zero value), matching how an unversioned peer would degrade.
func dirFromString(s string) rtether.LinkDir {
	switch s {
	case "down":
		return rtether.DirDown
	case "trunk":
		return rtether.DirTrunk
	default:
		return rtether.DirUp
	}
}

// Error codes of the wire error envelope. docs/server.md maps each code
// to its HTTP status.
const (
	// CodeBadRequest marks a malformed request body.
	CodeBadRequest = "bad_request"
	// CodeInvalidSpec marks a channel spec that fails validation.
	CodeInvalidSpec = "invalid_spec"
	// CodeNoRoute marks endpoints with no route between them.
	CodeNoRoute = "no_route"
	// CodeInfeasible marks a feasibility rejection; Admission is set.
	CodeInfeasible = "infeasible"
	// CodeUnknownChannel marks an operation on a channel ID that is not
	// established.
	CodeUnknownChannel = "unknown_channel"
	// CodeUnknownTopic marks an operation on a topic that was never
	// created.
	CodeUnknownTopic = "unknown_topic"
	// CodeDuplicateTopic marks creating a topic whose name is taken.
	CodeDuplicateTopic = "duplicate_topic"
	// CodeIDsExhausted marks an establishment refused because every
	// channel ID is in use (rtether.ErrIDsExhausted).
	CodeIDsExhausted = "ids_exhausted"
	// CodeClosed marks a request against a draining/closed daemon.
	CodeClosed = "closed"
	// CodeInternal marks an unclassified server-side failure.
	CodeInternal = "internal"
)

// Error is the wire error envelope: every non-2xx response carries
// {"error": {...}}. Admission is set if and only if Code is
// CodeInfeasible.
type Error struct {
	Code      string          `json:"code"`
	Message   string          `json:"message"`
	Admission *AdmissionError `json:"admission,omitempty"`
}

// Error implements error for transport through Go call chains.
func (e *Error) Error() string {
	return fmt.Sprintf("rtetherd: %s: %s", e.Code, e.Message)
}

// Envelope is the top-level shape of an error response body.
type Envelope struct {
	Err *Error `json:"error"`
}

// EstablishRequest asks for one RT channel (POST /v1/establish). The
// server may coalesce concurrent establish requests into one merged
// admission pass; the verdict each caller receives is its own.
type EstablishRequest struct {
	Spec Spec `json:"spec"`
}

// ChannelReply describes one established channel: its network-unique
// ID, committed per-hop deadline budgets (summing to D) and delivery
// guarantee T_max.
type ChannelReply struct {
	ID              uint32  `json:"id"`
	Budgets         []int64 `json:"budgets"`
	GuaranteedDelay int64   `json:"guaranteedDelay"`
}

// EstablishMulticastRequest asks for one multicast RT channel
// (POST /v1/multicast): the whole distribution tree is admitted
// atomically, and a feasibility rejection's AdmissionError names the
// failing branch and sink.
type EstablishMulticastRequest struct {
	Spec MulticastSpec `json:"spec"`
}

// EstablishAllRequest asks for an atomic all-or-nothing batch
// (POST /v1/establishAll): either every spec is admitted or none is.
type EstablishAllRequest struct {
	Specs []Spec `json:"specs"`
}

// EstablishAllReply lists the established channels in spec order.
type EstablishAllReply struct {
	Channels []ChannelReply `json:"channels"`
}

// ReleaseRequest frees one channel (POST /v1/release).
type ReleaseRequest struct {
	ID uint32 `json:"id"`
}

// ReleaseReply is the (empty) success body of a release.
type ReleaseReply struct{}

// ReconfigureRequest replaces a unicast channel's parameters
// (POST /v1/reconfigure) with the non-zero overrides applied (0 = keep),
// in one atomic admission decision that keeps the channel's ID
// (rtether.Channel.Reconfigure): the old reservation leaves and the new
// one joins together, so no concurrent establish can take the freed
// capacity in between. A rejected reconfiguration leaves the channel
// exactly as it was — ID, spec, budgets and traffic. Multicast channels
// cannot be reconfigured this way (bad_request).
type ReconfigureRequest struct {
	ID uint32 `json:"id"`
	C  int64  `json:"c,omitempty"`
	P  int64  `json:"p,omitempty"`
	D  int64  `json:"d,omitempty"`
}

// ChannelInfo is one established channel in a listing.
type ChannelInfo struct {
	ID      uint32  `json:"id"`
	Spec    Spec    `json:"spec"`
	Budgets []int64 `json:"budgets"`
}

// ChannelsReply lists established channels (GET /v1/channels) in
// establishment order.
type ChannelsReply struct {
	Channels []ChannelInfo `json:"channels"`
}

// DelaySummary is the wire form of a delay distribution.
type DelaySummary struct {
	Count  int64   `json:"count"`
	Min    int64   `json:"min"`
	Max    int64   `json:"max"`
	Mean   float64 `json:"mean"`
	StdDev float64 `json:"stdDev"`
	P50    int64   `json:"p50"`
	P90    int64   `json:"p90"`
	P99    int64   `json:"p99"`
}

// MetricsReply is one channel's delivery measurements
// (GET /v1/metrics?id=N). A channel that has not delivered or
// missed any frame yet reports all-zero metrics.
type MetricsReply struct {
	ID        uint32       `json:"id"`
	Delivered int64        `json:"delivered"`
	Misses    int64        `json:"misses"`
	Delay     DelaySummary `json:"delay"`
}

// FromMetrics converts a measurement snapshot to its wire form. m may
// be nil (nothing measured yet).
func FromMetrics(id rtether.ChannelID, m *rtether.ChannelMetrics) MetricsReply {
	rep := MetricsReply{ID: uint32(id)}
	if m == nil {
		return rep
	}
	rep.Delivered = m.Delivered
	rep.Misses = m.Misses
	if d := m.Delays; d != nil {
		rep.Delay = DelaySummary{
			Count:  d.Count(),
			Min:    d.Min(),
			Max:    d.Max(),
			Mean:   d.Mean(),
			StdDev: d.StdDev(),
			P50:    d.Percentile(50),
			P90:    d.Percentile(90),
			P99:    d.Percentile(99),
		}
	}
	return rep
}

// ServerStats counts daemon-side activity: how much the coalescing
// front-end merged and what the server is carrying.
type ServerStats struct {
	// Establishes counts establish requests that entered the coalescer.
	Establishes int64 `json:"establishes"`
	// Flights counts merged admission passes the coalescer dispatched;
	// Establishes/Flights is the effective merge factor.
	Flights int64 `json:"flights"`
	// MaxMerged is the largest number of establish requests merged into
	// one flight so far.
	MaxMerged int64 `json:"maxMerged"`
	// Watchers is the number of currently connected /v1/watch streams.
	Watchers int64 `json:"watchers"`
	// Channels is the number of currently established channels.
	Channels int64 `json:"channels"`
}

// StatsReply is the body of GET /v1/stats: the network's admission
// counters (field names as in rtether.AdmissionStats) plus the daemon's
// own counters.
type StatsReply struct {
	Admission rtether.AdmissionStats `json:"admission"`
	Server    ServerStats            `json:"server"`
}

// Watch event types.
const (
	// EventAdmit reports an accepted establishment, or an accepted
	// reconfiguration (the same ID with its new spec and budgets).
	EventAdmit = "admit"
	// EventReject reports a rejected establishment (Error is set; for
	// feasibility rejections Error.Admission carries the diagnostics).
	EventReject = "reject"
	// EventRelease reports a released channel.
	EventRelease = "release"
	// EventReroute reports a channel re-admitted on a new route after a
	// failure, under its original contract (Cause names the failure).
	EventReroute = "reroute"
	// EventDegrade reports a channel re-admitted after a failure with a
	// relaxed deadline (NewD).
	EventDegrade = "degrade"
	// EventPreempt reports a lower-priority channel evicted during
	// failure recovery to make room for a higher-priority one.
	EventPreempt = "preempt"
	// EventLost reports a channel the residual network could not keep
	// after a failure (Error carries the final admission error).
	EventLost = "lost"
	// EventHeartbeat is the periodic liveness beacon of the watch feed
	// (rtetherd -heartbeat): its Seq is the feed's high-water mark and
	// Channels the established-channel count at emission, so a consumer
	// can detect a stalled stream and a silently idle daemon alike.
	EventHeartbeat = "heartbeat"
)

// WatchEvent is one line of the /v1/watch newline-delimited JSON feed.
type WatchEvent struct {
	// Seq is the event's position in the daemon's total event order;
	// consecutive events on one stream have increasing Seq, and gaps
	// mean the stream fell behind and was dropped by the server.
	Seq  uint64 `json:"seq"`
	Type string `json:"type"`
	// ID is the subject channel (admit, release, and every failure
	// outcome — survivors keep their ID across a reroute). Channel IDs
	// are 32 bits on the wire; they are never truncated to the simulated
	// frame format's 16-bit field here.
	ID uint32 `json:"id,omitempty"`
	// Spec is the requested channel (admit, reject) or the committed
	// contract after recovery (failure outcomes).
	Spec *Spec `json:"spec,omitempty"`
	// Budgets are the committed per-hop budgets (admit).
	Budgets []int64 `json:"budgets,omitempty"`
	// Error carries the rejection (reject, lost).
	Error *Error `json:"error,omitempty"`
	// Cause names the failed or repaired element behind a failure
	// outcome, e.g. "trunk 0-1 down" or "switch 2 down".
	Cause string `json:"cause,omitempty"`
	// NewD is the relaxed deadline committed for a degrade outcome.
	NewD int64 `json:"newD,omitempty"`
	// Channels is the established-channel count carried by heartbeat
	// events (absent elsewhere).
	Channels int `json:"channels,omitempty"`
}

// FailRequest changes topology health (POST /v1/fail): kind "link"
// fails (up=false) or repairs (up=true) the trunk between switches A
// and B; kind "switch" fails or repairs the switch S with every trunk
// and node attachment it carries. Multi-switch topologies only.
type FailRequest struct {
	Kind string `json:"kind"` // "link" | "switch"
	A    uint16 `json:"a,omitempty"`
	B    uint16 `json:"b,omitempty"`
	S    uint16 `json:"s,omitempty"`
	Up   bool   `json:"up"`
}

// FailOutcome is one channel's fate in a FailReply.
type FailOutcome struct {
	ID      uint32 `json:"id"`
	Outcome string `json:"outcome"` // "rerouted" | "degraded" | "preempted" | "lost"
	NewD    int64  `json:"newD,omitempty"`
}

// FailReply summarizes the recovery pass a failure triggered
// (rtether.FailoverReport): how many established channels the failed
// element carried and what became of each. Repairs report zero
// affected channels.
type FailReply struct {
	Affected int           `json:"affected"`
	Outcomes []FailOutcome `json:"outcomes,omitempty"`
}

// FromFailoverReport converts a recovery pass's report to its wire form.
func FromFailoverReport(rep *rtether.FailoverReport) FailReply {
	reply := FailReply{Affected: rep.Affected}
	for _, oc := range rep.Outcomes {
		reply.Outcomes = append(reply.Outcomes, FailOutcome{
			ID:      uint32(oc.ID),
			Outcome: oc.Outcome.String(),
			NewD:    oc.NewD,
		})
	}
	return reply
}

// CreateTopicRequest declares a pub/sub topic (POST /v1/topics): a
// named publisher endpoint with the RT contract every delivery will
// honor. Declaring a topic reserves nothing — the multicast channel
// materializes with the first subscriber and is re-admitted as the
// subscriber set changes.
type CreateTopicRequest struct {
	Name string `json:"name"`
	Src  uint16 `json:"src"`
	C    int64  `json:"c"`
	P    int64  `json:"p"`
	D    int64  `json:"d"`
}

// TopicInfo is one topic in a listing (GET /v1/topics).
type TopicInfo struct {
	Name string `json:"name"`
	Src  uint16 `json:"src"`
	C    int64  `json:"c"`
	P    int64  `json:"p"`
	D    int64  `json:"d"`
	// Subscribers is the current subscriber node set in join order.
	Subscribers []uint16 `json:"subscribers,omitempty"`
	// ChannelID is the live multicast channel carrying the topic; 0
	// while the topic has no subscribers (no reservation exists).
	ChannelID uint32 `json:"channelId,omitempty"`
	// Published counts messages published to the topic so far.
	Published uint64 `json:"published"`
}

// TopicsReply lists declared topics sorted by name.
type TopicsReply struct {
	Topics []TopicInfo `json:"topics"`
}

// PublishRequest pushes one message to a topic
// (POST /v1/topics/publish). The payload is delivered to every current
// subscriber's feed.
type PublishRequest struct {
	Topic   string `json:"topic"`
	Payload string `json:"payload"`
}

// PublishReply acknowledges a publish with the message's sequence
// number in the topic's total order and the subscriber count it was
// fanned out to.
type PublishReply struct {
	Seq       uint64 `json:"seq"`
	Delivered int    `json:"delivered"`
}

// TopicEvent is one line of a topic subscription's newline-delimited
// JSON feed (GET /v1/topics/subscribe?topic=T&node=N). Seq is the
// message's position in the topic's publish order; like /v1/watch, a
// gap means the subscriber fell behind and the server dropped the
// stream.
type TopicEvent struct {
	Seq     uint64 `json:"seq"`
	Topic   string `json:"topic"`
	Payload string `json:"payload"`
}

// HealthzReply is the body of GET /v1/healthz: liveness plus a small
// operational summary, cheap enough for tight probe loops.
type HealthzReply struct {
	Status     string  `json:"status"` // always "ok" on a 200
	UptimeSecs float64 `json:"uptimeSecs"`
	GoVersion  string  `json:"goVersion"`
	// Build identifies the binary (main module version, VCS revision
	// when embedded).
	Build string `json:"build,omitempty"`
	// WatchSeq is the high-water sequence number of the /v1/watch event
	// order (0 = no events yet).
	WatchSeq uint64 `json:"watchSeq"`
	// Channels is the number of currently established channels.
	Channels int `json:"channels"`
	// Topics is the number of declared pub/sub topics.
	Topics int `json:"topics"`
}

// SpanInfo is one admission-flight span from the server's flight
// recorder (GET /v1/spans): where a coalesced establish flight spent
// its time, split into the queue wait of its slowest member, the merged
// kernel admission pass, the verification-sweep share of that pass, and
// the verdict publication fan-out. All durations are nanoseconds.
type SpanInfo struct {
	// Flight numbers the flight (the server's monotonically increasing
	// flight counter).
	Flight int64 `json:"flight"`
	// StartUnixNano is the wall-clock instant the flight launched.
	StartUnixNano int64 `json:"startUnixNano"`
	// Merged is how many establish requests the flight decided.
	Merged int `json:"merged"`
	// WaitNs is the longest coalesce-queue wait among the merged
	// requests.
	WaitNs int64 `json:"waitNs"`
	// AdmitNs is the duration of the merged kernel admission pass.
	AdmitNs int64 `json:"admitNs"`
	// VerifyNs is the verification-sweep time the admission layer
	// accumulated during this flight (attribution is approximate when
	// non-coalesced passes run concurrently).
	VerifyNs int64 `json:"verifyNs"`
	// PublishNs is the time spent publishing the verdicts on the watch
	// feed, before they are posted to their waiters.
	PublishNs int64 `json:"publishNs"`
	// Accepted and Rejected split the flight's verdicts.
	Accepted int `json:"accepted"`
	Rejected int `json:"rejected"`
}

// SpansReply is the GET /v1/spans body: the flight recorder's retained
// spans, oldest first.
type SpansReply struct {
	Spans []SpanInfo `json:"spans"`
}
