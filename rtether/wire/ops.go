package wire

import (
	"fmt"
	"net/url"
	"strconv"
)

// Op declares one unary operation of the rtetherd API, once: its metric
// name, its HTTP route, whether a client may retry it, and — for the
// six operations the binary listener also serves — its request/reply
// frame pair with their codecs. The server derives its HTTP and binary
// handlers from these values and the client its round trip, so an
// operation's route and message types are written nowhere else.
type Op[Req, Rep any] struct {
	// Name labels the operation's binary dispatch histogram (msg=…).
	Name string
	// Method and Path are the HTTP route; GET operations carry their
	// request, if any, in the URL query (see MetricsRequest).
	Method, Path string
	// Idempotent operations are retried on transient failures.
	Idempotent bool
	// Msg and Reply are the binary frame types; Msg is 0 for operations
	// served over HTTP/JSON only, which leave the codecs nil.
	Msg, Reply MsgType
	AppendReq  func(dst []byte, reqID uint32, r Req) []byte
	DecodeReq  func(p []byte) (Req, error)
	AppendRep  func(dst []byte, reqID uint32, r Rep) []byte
	DecodeRep  func(p []byte) (Rep, error)
}

// The unary operations of the rtetherd API.
var (
	OpEstablish = &Op[EstablishRequest, ChannelReply]{
		Name: "establish", Method: "POST", Path: "/v1/establish",
		Msg: MsgEstablish, Reply: MsgChannel,
		AppendReq: func(dst []byte, id uint32, r EstablishRequest) []byte { return AppendEstablish(dst, id, r.Spec) },
		DecodeReq: decodeAs(DecodeEstablish, func(s Spec) EstablishRequest { return EstablishRequest{s} }),
		AppendRep: AppendChannelReply, DecodeRep: DecodeChannelReply,
	}
	OpEstablishAll = &Op[EstablishAllRequest, EstablishAllReply]{
		Name: "establishAll", Method: "POST", Path: "/v1/establishAll",
		Msg: MsgEstablishAll, Reply: MsgChannelList,
		AppendReq: func(dst []byte, id uint32, r EstablishAllRequest) []byte { return AppendEstablishAll(dst, id, r.Specs) },
		DecodeReq: decodeAs(DecodeEstablishAll, func(s []Spec) EstablishAllRequest { return EstablishAllRequest{s} }),
		AppendRep: AppendChannelList, DecodeRep: DecodeChannelList,
	}
	OpMulticast = &Op[EstablishMulticastRequest, ChannelReply]{
		Name: "multicast", Method: "POST", Path: "/v1/multicast",
		Msg: MsgMulticast, Reply: MsgChannel,
		AppendReq: func(dst []byte, id uint32, r EstablishMulticastRequest) []byte {
			return AppendMulticast(dst, id, r.Spec)
		},
		DecodeReq: decodeAs(DecodeMulticast, func(s MulticastSpec) EstablishMulticastRequest { return EstablishMulticastRequest{s} }),
		AppendRep: AppendChannelReply, DecodeRep: DecodeChannelReply,
	}
	OpRelease = &Op[ReleaseRequest, ReleaseReply]{
		Name: "release", Method: "POST", Path: "/v1/release",
		Msg: MsgRelease, Reply: MsgReleased,
		AppendReq: func(dst []byte, id uint32, r ReleaseRequest) []byte { return AppendRelease(dst, id, r.ID) },
		DecodeReq: decodeAs(DecodeRelease, func(id uint32) ReleaseRequest { return ReleaseRequest{id} }),
		AppendRep: func(dst []byte, id uint32, _ ReleaseReply) []byte { return AppendReleased(dst, id) },
		DecodeRep: func([]byte) (ReleaseReply, error) { return ReleaseReply{}, nil },
	}
	OpReconfigure = &Op[ReconfigureRequest, ChannelReply]{
		Name: "reconfigure", Method: "POST", Path: "/v1/reconfigure",
		Msg: MsgReconfigure, Reply: MsgChannel,
		AppendReq: AppendReconfigure, DecodeReq: DecodeReconfigure,
		AppendRep: AppendChannelReply, DecodeRep: DecodeChannelReply,
	}
	OpStats = &Op[struct{}, StatsReply]{
		Name: "stats", Method: "GET", Path: "/v1/stats", Idempotent: true,
		Msg: MsgStats, Reply: MsgStatsReply,
		AppendReq: func(dst []byte, id uint32, _ struct{}) []byte { return AppendStats(dst, id) },
		DecodeReq: func([]byte) (struct{}, error) { return struct{}{}, nil },
		AppendRep: AppendStatsReply, DecodeRep: DecodeStatsReply,
	}
	OpFail        = &Op[FailRequest, FailReply]{Name: "fail", Method: "POST", Path: "/v1/fail"}
	OpChannels    = &Op[struct{}, ChannelsReply]{Name: "channels", Method: "GET", Path: "/v1/channels", Idempotent: true}
	OpMetrics     = &Op[MetricsRequest, MetricsReply]{Name: "metrics", Method: "GET", Path: "/v1/metrics", Idempotent: true}
	OpSpans       = &Op[struct{}, SpansReply]{Name: "spans", Method: "GET", Path: "/v1/spans", Idempotent: true}
	OpHealthz     = &Op[struct{}, HealthzReply]{Name: "healthz", Method: "GET", Path: "/v1/healthz", Idempotent: true}
	OpCreateTopic = &Op[CreateTopicRequest, TopicInfo]{Name: "createTopic", Method: "POST", Path: "/v1/topics"}
	OpListTopics  = &Op[struct{}, TopicsReply]{Name: "listTopics", Method: "GET", Path: "/v1/topics", Idempotent: true}
	OpPublish     = &Op[PublishRequest, PublishReply]{Name: "publish", Method: "POST", Path: "/v1/topics/publish"}
)

// decodeAs lifts a payload decoder to an operation's request type.
func decodeAs[T, R any](dec func([]byte) (T, error), wrap func(T) R) func([]byte) (R, error) {
	return func(p []byte) (R, error) {
		v, err := dec(p)
		return wrap(v), err
	}
}

// The two streaming routes: newline-delimited JSON feeds, not unary
// operations.
const (
	WatchPath     = "/v1/watch"
	SubscribePath = "/v1/topics/subscribe"
)

// MetricsRequest names the channel whose measurements
// GET /v1/metrics?id=N reads.
type MetricsRequest struct {
	ID uint32
}

// Query renders the request as its URL query.
func (r MetricsRequest) Query() string { return "id=" + strconv.FormatUint(uint64(r.ID), 10) }

// ParseQuery reads the request from its URL query.
func (r *MetricsRequest) ParseQuery(q url.Values) error {
	raw := q.Get("id")
	id, err := strconv.ParseUint(raw, 10, 32)
	if err != nil {
		return fmt.Errorf("rtetherd: bad channel id %q", raw)
	}
	r.ID = uint32(id)
	return nil
}
