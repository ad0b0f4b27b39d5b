package client

import (
	"context"
	"errors"
	"io"
	"math/rand"
	"net"
	"net/http"
	"time"

	"repro/rtether/wire"
)

// Retry policy defaults: idempotent reads survive a daemon restart or a
// transient transport failure without the caller seeing it, at a worst
// case of ~1 s of added latency.
const (
	defaultRetries   = 3
	defaultRetryBase = 50 * time.Millisecond
	retryCap         = time.Second
)

// WithRetry overrides the backoff policy for idempotent read calls
// (Stats, Channels, Metrics, Spans, Healthz, Topics — the ops the
// rtether/wire table marks Idempotent): up to retries re-attempts after
// the first failure, with exponential backoff starting at base.
// WithRetry(0, 0) disables retrying entirely.
func WithRetry(retries int, base time.Duration) Option {
	return func(c *Client) {
		c.retries = retries
		c.retryBase = base
	}
}

// httpStatusError records a non-2xx response whose body carried no
// decodable wire envelope (a proxy error page, a half-dead daemon).
type httpStatusError struct {
	method string
	path   string
	status int
}

func (e *httpStatusError) Error() string {
	return "client: " + e.method + " " + e.path + ": HTTP " + http.StatusText(e.status)
}

// retryable reports whether err is worth re-attempting on an idempotent
// call: transport-level failures on either transport (a dial refused, a
// connection reset or dropped before the reply — no verdict reached the
// caller) and 5xx-class server errors. Typed verdicts (rejections,
// unknown IDs, invalid specs) and context cancellation are final.
func retryable(err error) bool {
	var ne net.Error
	if errors.As(err, &ne) || errors.Is(err, io.EOF) {
		// Context errors come back wrapped in *url.Error (a net.Error)
		// too, and those must not be retried.
		return !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded)
	}
	var se *httpStatusError
	if errors.As(err, &se) {
		return se.status >= 500
	}
	var we *wire.Error
	if errors.As(err, &we) {
		return we.Code == wire.CodeInternal
	}
	return false
}

// do runs op. Idempotent ops retry transient failures with jittered
// exponential backoff: attempt k sleeps a uniformly random duration in
// (0, base·2^k], capped at retryCap, so a thundering herd of readers
// decorrelates instead of re-arriving in lockstep.
func do[Req, Rep any](ctx context.Context, c *Client, op *wire.Op[Req, Rep], req Req) (Rep, error) {
	for attempt := 0; ; attempt++ {
		rep, err := roundTrip(ctx, c, op, req)
		if err == nil || !op.Idempotent || attempt >= c.retries || !retryable(err) {
			return rep, err
		}
		ceil := c.retryBase << attempt
		if ceil > retryCap || ceil <= 0 {
			ceil = retryCap
		}
		timer := time.NewTimer(time.Duration(1 + rand.Int63n(int64(ceil))))
		select {
		case <-ctx.Done():
			timer.Stop()
			return rep, err
		case <-timer.C:
		}
	}
}
