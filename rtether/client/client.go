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

	// transport and bin select the binary fast path for the
	// latency-critical calls (binary.go); zero values mean HTTP/JSON.
	transport Transport
	bin       *binPool
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
	// per host that fan-in load (rtload's worker pool) reuses sockets
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

// CloseIdleConnections releases pooled connections on both transports.
func (c *Client) CloseIdleConnections() {
	c.hc.CloseIdleConnections()
	if c.bin != nil {
		c.bin.closeIdle()
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

// channelOf converts a wire reply to the client value.
func channelOf(rep wire.ChannelReply) Channel {
	return Channel{ID: rtether.ChannelID(rep.ID), Budgets: rep.Budgets, GuaranteedDelay: rep.GuaranteedDelay}
}

// Establish requests one RT channel. The daemon may coalesce the
// request with other clients' concurrent establishes into one merged
// admission pass; the verdict is this spec's own either way. A
// feasibility rejection is a *rtether.AdmissionError.
func (c *Client) Establish(ctx context.Context, spec rtether.ChannelSpec) (Channel, error) {
	if c.transport == TransportBinary {
		return c.binEstablish(ctx, spec)
	}
	var rep wire.ChannelReply
	err := c.call(ctx, http.MethodPost, "/v1/establish", wire.EstablishRequest{Spec: wire.FromSpec(spec)}, &rep)
	if err != nil {
		return Channel{}, err
	}
	return channelOf(rep), nil
}

// EstablishAll requests an atomic all-or-nothing batch: either every
// spec is admitted (channels returned in spec order) or none is.
func (c *Client) EstablishAll(ctx context.Context, specs []rtether.ChannelSpec) ([]Channel, error) {
	if c.transport == TransportBinary {
		return c.binEstablishAll(ctx, specs)
	}
	req := wire.EstablishAllRequest{Specs: make([]wire.Spec, len(specs))}
	for i, s := range specs {
		req.Specs[i] = wire.FromSpec(s)
	}
	var rep wire.EstablishAllReply
	if err := c.call(ctx, http.MethodPost, "/v1/establishAll", req, &rep); err != nil {
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
	if c.transport == TransportBinary {
		return c.binRelease(ctx, id)
	}
	return c.call(ctx, http.MethodPost, "/v1/release", wire.ReleaseRequest{ID: uint32(id)}, nil)
}

// Reconfigure replaces a unicast channel's parameters with the non-zero
// overrides applied (0 = keep), in one atomic decision that keeps its ID
// (see wire.ReconfigureRequest). A rejected reconfiguration leaves the
// channel exactly as it was.
func (c *Client) Reconfigure(ctx context.Context, id rtether.ChannelID, overrideC, overrideP, overrideD int64) (Channel, error) {
	if c.transport == TransportBinary {
		return c.binReconfigure(ctx, wire.ReconfigureRequest{ID: uint32(id), C: overrideC, P: overrideP, D: overrideD})
	}
	var rep wire.ChannelReply
	err := c.call(ctx, http.MethodPost, "/v1/reconfigure",
		wire.ReconfigureRequest{ID: uint32(id), C: overrideC, P: overrideP, D: overrideD}, &rep)
	if err != nil {
		return Channel{}, err
	}
	return channelOf(rep), nil
}

// SetLinkUp fails (up=false) or repairs (up=true) the trunk between
// switches a and b on the daemon's network (POST /v1/fail). Failing a
// trunk triggers the server-side recovery pass — batch re-route and
// re-admission under the daemon's failure policy — and the reply
// summarizes every affected channel's fate; the same outcomes appear
// on the watch feed as reroute/degrade/preempt/lost events.
func (c *Client) SetLinkUp(ctx context.Context, a, b rtether.SwitchID, up bool) (wire.FailReply, error) {
	var rep wire.FailReply
	err := c.call(ctx, http.MethodPost, "/v1/fail",
		wire.FailRequest{Kind: "link", A: uint16(a), B: uint16(b), Up: up}, &rep)
	return rep, err
}

// SetSwitchUp fails or repairs a whole switch on the daemon's network
// (POST /v1/fail), with the same recovery semantics as SetLinkUp.
func (c *Client) SetSwitchUp(ctx context.Context, s rtether.SwitchID, up bool) (wire.FailReply, error) {
	var rep wire.FailReply
	err := c.call(ctx, http.MethodPost, "/v1/fail",
		wire.FailRequest{Kind: "switch", S: uint16(s), Up: up}, &rep)
	return rep, err
}

// Stats reads the daemon's admission and coalescing counters. Like all
// idempotent reads it retries transient transport and 5xx failures with
// jittered exponential backoff (see WithRetry).
func (c *Client) Stats(ctx context.Context) (wire.StatsReply, error) {
	if c.transport == TransportBinary {
		return c.binStats(ctx)
	}
	var rep wire.StatsReply
	err := c.getRetry(ctx, "/v1/stats", &rep)
	return rep, err
}

// Channels lists the daemon's established channels, retrying transient
// failures.
func (c *Client) Channels(ctx context.Context) ([]wire.ChannelInfo, error) {
	var rep wire.ChannelsReply
	if err := c.getRetry(ctx, "/v1/channels", &rep); err != nil {
		return nil, err
	}
	return rep.Channels, nil
}

// Metrics reads one channel's delivery measurements, retrying transient
// failures.
func (c *Client) Metrics(ctx context.Context, id rtether.ChannelID) (wire.MetricsReply, error) {
	var rep wire.MetricsReply
	err := c.getRetry(ctx, fmt.Sprintf("/v1/metrics?id=%d", id), &rep)
	return rep, err
}

// MetricsProm scrapes the daemon's Prometheus text exposition
// (GET /metrics) into a flat series → value map: the full
// `name{labels}` string (or the bare name when unlabeled) keys each
// sample. Scraping before and after a run and differencing the maps
// attributes server-side counters — cache hit-rate, flights, coalesce
// merges — to that run; the sweep daemon mode and rtload do exactly
// this.
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
	var rep wire.SpansReply
	err := c.getRetry(ctx, "/v1/spans", &rep)
	return rep, err
}

// Healthz probes daemon liveness, discarding the body. Use HealthzInfo
// for the operational summary.
func (c *Client) Healthz(ctx context.Context) error {
	return c.getRetry(ctx, "/v1/healthz", nil)
}

// HealthzInfo reads the daemon's liveness summary: uptime, build
// identity, watch-feed high-water mark and open channel/topic counts.
func (c *Client) HealthzInfo(ctx context.Context) (wire.HealthzReply, error) {
	var rep wire.HealthzReply
	err := c.getRetry(ctx, "/v1/healthz", &rep)
	return rep, err
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
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/watch", nil)
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
			return nil, fmt.Errorf("client: watch: HTTP %d", resp.StatusCode)
		}
		return nil, goError(env.Err)
	}
	return &Watcher{body: resp.Body, dec: json.NewDecoder(resp.Body)}, nil
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
