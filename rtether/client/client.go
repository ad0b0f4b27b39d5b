// Package client is the typed Go client of the rtetherd admission
// service (internal/server, wire schema rtether/wire): establish,
// establishAll, release, reconfigure, stats, per-channel metrics and
// the streaming /v1/watch event feed, over plain HTTP/JSON with
// connection reuse and per-call context cancellation.
//
// Error fidelity matches the in-process API: a feasibility rejection
// comes back as a *rtether.AdmissionError reconstructed field-for-field
// from the wire, so errors.Is(err, rtether.ErrInfeasible) and
// errors.As(err, &admissionErr) work exactly as they do against a local
// rtether.Network; a draining daemon maps to rtether.ErrClosed and an
// unknown channel ID to ErrUnknownChannel.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/rtether"
	"repro/rtether/wire"
)

// ErrUnknownChannel is returned for operations on a channel ID the
// daemon does not have established.
var ErrUnknownChannel = errors.New("client: unknown channel")

// Channel describes one channel established through the daemon: the
// network-unique ID, the committed per-hop deadline budgets and the
// delivery guarantee T_max. It is a value, not a live handle — the
// daemon owns the rtether handles; remote callers operate by ID.
type Channel struct {
	ID              rtether.ChannelID
	Budgets         []int64
	GuaranteedDelay int64
}

// Client talks to one rtetherd instance. It is safe for concurrent use;
// the underlying http.Client reuses connections across calls.
type Client struct {
	base      string
	hc        *http.Client
	retries   int
	retryBase time.Duration

	// transport and binAddr select the binary fast path for the ops
	// that have one (binary.go); zero values mean HTTP/JSON. bin is the
	// one binary connection, guarded by binMu.
	transport Transport
	binAddr   string
	binMu     sync.Mutex
	bin       *binConn
}

// Option customizes a Client.
type Option func(*Client)

// WithHTTPClient substitutes the transport (timeouts, proxies, test
// doubles). The default is a dedicated http.Client with keep-alives.
func WithHTTPClient(hc *http.Client) Option {
	return func(c *Client) { c.hc = hc }
}

// New returns a client for the daemon at addr ("host:port" or a full
// http:// base URL).
func New(addr string, opts ...Option) *Client {
	base := addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	// One daemon, many concurrent calls: keep enough idle connections
	// per host that fan-in load (`rtexp load`'s workers) reuses sockets
	// instead of churning through ephemeral ports.
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = 128
	c := &Client{
		base:      strings.TrimRight(base, "/"),
		hc:        &http.Client{Transport: tr},
		retries:   defaultRetries,
		retryBase: defaultRetryBase,
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// CloseIdleConnections releases the pooled HTTP connections and the
// binary connection; in-flight binary requests fail, and the next call
// dials afresh.
func (c *Client) CloseIdleConnections() {
	c.hc.CloseIdleConnections()
	c.binMu.Lock()
	bc := c.bin
	c.bin = nil
	c.binMu.Unlock()
	if bc != nil {
		bc.close(errors.New("client: connection closed"))
	}
}

// goError maps a wire error envelope to the typed in-process error.
func goError(we *wire.Error) error {
	switch {
	case we == nil:
		return errors.New("client: malformed error response")
	case we.Code == wire.CodeInfeasible && we.Admission != nil:
		return we.Admission.AdmissionError()
	case we.Code == wire.CodeClosed:
		return fmt.Errorf("client: %s: %w", we.Message, rtether.ErrClosed)
	case we.Code == wire.CodeIDsExhausted:
		return fmt.Errorf("client: %s: %w", we.Message, rtether.ErrIDsExhausted)
	case we.Code == wire.CodeUnknownChannel:
		return fmt.Errorf("%w: %s", ErrUnknownChannel, we.Message)
	case we.Code == wire.CodeUnknownTopic:
		return fmt.Errorf("%w: %s", ErrUnknownTopic, we.Message)
	case we.Code == wire.CodeDuplicateTopic:
		return fmt.Errorf("%w: %s", ErrDuplicateTopic, we.Message)
	default:
		return we
	}
}

// call performs one JSON round trip. body may be nil (GET); out may be
// nil (reply discarded).
func (c *Client) call(ctx context.Context, method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			return fmt.Errorf("client: encoding request: %w", err)
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return fmt.Errorf("client: %w", err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("client: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var env wire.Envelope
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil || env.Err == nil {
			return &httpStatusError{method: method, path: path, status: resp.StatusCode}
		}
		return goError(env.Err)
	}
	if out == nil {
		_, _ = io.Copy(io.Discard, resp.Body)
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("client: decoding response: %w", err)
	}
	return nil
}

// roundTrip runs one attempt of op: over the binary connection when the
// client is binary and the op has a message pair, over HTTP/JSON
// otherwise. A failed attempt returns the zero reply.
func roundTrip[Req, Rep any](ctx context.Context, c *Client, op *wire.Op[Req, Rep], req Req) (Rep, error) {
	var zero Rep
	if c.transport == TransportBinary && op.Msg != 0 {
		f, err := c.binCall(ctx, op.Reply, func(dst []byte, id uint32) []byte { return op.AppendReq(dst, id, req) })
		if err != nil {
			return zero, err
		}
		rep, err := op.DecodeRep(f.Payload)
		if err != nil {
			return zero, fmt.Errorf("client: decoding %s reply: %w", op.Name, err)
		}
		return rep, nil
	}
	var body any
	path := op.Path
	if op.Method == http.MethodPost {
		body = req
	} else if q, ok := any(req).(interface{ Query() string }); ok {
		path += "?" + q.Query()
	}
	var rep Rep
	if err := c.call(ctx, op.Method, path, body, &rep); err != nil {
		return zero, err
	}
	return rep, nil
}

// channelOf converts a wire reply to the client value.
func channelOf(rep wire.ChannelReply) Channel {
	return Channel{ID: rtether.ChannelID(rep.ID), Budgets: rep.Budgets, GuaranteedDelay: rep.GuaranteedDelay}
}

// channelOrErr converts a channel reply, or passes the call's error on.
func channelOrErr(rep wire.ChannelReply, err error) (Channel, error) {
	if err != nil {
		return Channel{}, err
	}
	return channelOf(rep), nil
}

// Establish requests one RT channel. The daemon may coalesce the
// request with other clients' concurrent establishes into one merged
// admission pass; the verdict is this spec's own either way. A
// feasibility rejection is a *rtether.AdmissionError.
func (c *Client) Establish(ctx context.Context, spec rtether.ChannelSpec) (Channel, error) {
	return channelOrErr(do(ctx, c, wire.OpEstablish, wire.EstablishRequest{Spec: wire.FromSpec(spec)}))
}

// EstablishAll requests an atomic all-or-nothing batch: either every
// spec is admitted (channels returned in spec order) or none is.
func (c *Client) EstablishAll(ctx context.Context, specs []rtether.ChannelSpec) ([]Channel, error) {
	req := wire.EstablishAllRequest{Specs: make([]wire.Spec, len(specs))}
	for i, s := range specs {
		req.Specs[i] = wire.FromSpec(s)
	}
	rep, err := do(ctx, c, wire.OpEstablishAll, req)
	if err != nil {
		return nil, err
	}
	chs := make([]Channel, len(rep.Channels))
	for i, ch := range rep.Channels {
		chs[i] = channelOf(ch)
	}
	return chs, nil
}

// Release frees an established channel.
func (c *Client) Release(ctx context.Context, id rtether.ChannelID) error {
	_, err := do(ctx, c, wire.OpRelease, wire.ReleaseRequest{ID: uint32(id)})
	return err
}

// Reconfigure replaces a unicast channel's parameters with the non-zero
// overrides applied (0 = keep), in one atomic decision that keeps its ID
// (see wire.ReconfigureRequest). A rejected reconfiguration leaves the
// channel exactly as it was.
func (c *Client) Reconfigure(ctx context.Context, id rtether.ChannelID, overrideC, overrideP, overrideD int64) (Channel, error) {
	return channelOrErr(do(ctx, c, wire.OpReconfigure,
		wire.ReconfigureRequest{ID: uint32(id), C: overrideC, P: overrideP, D: overrideD}))
}

// SetLinkUp fails (up=false) or repairs (up=true) the trunk between
// switches a and b on the daemon's network (POST /v1/fail). Failing a
// trunk triggers the server-side recovery pass — batch re-route and
// re-admission under the daemon's failure policy — and the reply
// summarizes every affected channel's fate; the same outcomes appear
// on the watch feed as reroute/degrade/preempt/lost events.
func (c *Client) SetLinkUp(ctx context.Context, a, b rtether.SwitchID, up bool) (wire.FailReply, error) {
	return do(ctx, c, wire.OpFail, wire.FailRequest{Kind: "link", A: uint16(a), B: uint16(b), Up: up})
}

// SetSwitchUp fails or repairs a whole switch on the daemon's network
// (POST /v1/fail), with the same recovery semantics as SetLinkUp.
func (c *Client) SetSwitchUp(ctx context.Context, s rtether.SwitchID, up bool) (wire.FailReply, error) {
	return do(ctx, c, wire.OpFail, wire.FailRequest{Kind: "switch", S: uint16(s), Up: up})
}

// Stats reads the daemon's admission and coalescing counters. Like all
// idempotent reads it retries transient transport and 5xx failures with
// jittered exponential backoff (see WithRetry).
func (c *Client) Stats(ctx context.Context) (wire.StatsReply, error) {
	return do(ctx, c, wire.OpStats, struct{}{})
}

// Channels lists the daemon's established channels, retrying transient
// failures.
func (c *Client) Channels(ctx context.Context) ([]wire.ChannelInfo, error) {
	rep, err := do(ctx, c, wire.OpChannels, struct{}{})
	return rep.Channels, err
}

// Metrics reads one channel's delivery measurements, retrying transient
// failures.
func (c *Client) Metrics(ctx context.Context, id rtether.ChannelID) (wire.MetricsReply, error) {
	return do(ctx, c, wire.OpMetrics, wire.MetricsRequest{ID: uint32(id)})
}

// MetricsProm scrapes the daemon's Prometheus text exposition
// (GET /metrics) into a flat series → value map: the full
// `name{labels}` string (or the bare name when unlabeled) keys each
// sample. Scraping before and after a run and differencing the maps
// attributes server-side counters — sweep skips (links a decision did
// not move), flights, coalesce merges — to that run; the benchmark
// (go run ./bench) does exactly this.
func (c *Client) MetricsProm(ctx context.Context) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/metrics", nil)
	if err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, &httpStatusError{method: http.MethodGet, path: "/metrics", status: resp.StatusCode}
	}
	m, err := obs.ParseText(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("client: parsing exposition: %w", err)
	}
	return m, nil
}

// Spans fetches the daemon's admission flight recorder (GET /v1/spans):
// the most recent coalesced flights with their wait / admit / verify /
// publish split, oldest first.
func (c *Client) Spans(ctx context.Context) (wire.SpansReply, error) {
	return do(ctx, c, wire.OpSpans, struct{}{})
}

// Healthz probes daemon liveness. Use HealthzInfo for the operational
// summary.
func (c *Client) Healthz(ctx context.Context) error {
	_, err := c.HealthzInfo(ctx)
	return err
}

// HealthzInfo reads the daemon's liveness summary: uptime, build
// identity, watch-feed high-water mark and open channel/topic counts.
func (c *Client) HealthzInfo(ctx context.Context) (wire.HealthzReply, error) {
	return do(ctx, c, wire.OpHealthz, struct{}{})
}

// Watcher is an open /v1/watch stream.
type Watcher struct {
	body io.ReadCloser
	dec  *json.Decoder
}

// Watch opens the admission event stream: admissions, rejections (with
// full diagnostics) and releases, in daemon event order. Cancel the
// context or Close the watcher to stop. A stream that falls too far
// behind is dropped by the daemon (Next returns io.EOF; Seq gaps on
// reconnect reveal the missed events).
func (c *Client) Watch(ctx context.Context) (*Watcher, error) {
	body, err := c.openStream(ctx, "watch", wire.WatchPath)
	if err != nil {
		return nil, err
	}
	return &Watcher{body: body, dec: json.NewDecoder(body)}, nil
}

// openStream opens a newline-delimited JSON stream, mapping a refusal to
// its typed error.
func (c *Client) openStream(ctx context.Context, what, path string) (io.ReadCloser, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		var env wire.Envelope
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
			return nil, fmt.Errorf("client: %s: HTTP %d", what, resp.StatusCode)
		}
		return nil, goError(env.Err)
	}
	return resp.Body, nil
}

// Next blocks for the next event. It returns io.EOF (possibly wrapped)
// when the stream ends.
func (w *Watcher) Next() (wire.WatchEvent, error) {
	var ev wire.WatchEvent
	err := w.dec.Decode(&ev)
	return ev, err
}

// Close terminates the stream.
func (w *Watcher) Close() error { return w.body.Close() }
