package obs

import (
	"sync"
	"time"
)

// Span records where one coalesced admission flight spent its time:
// how long merged requests waited to join, how long the kernel pass
// took (and, within it, the verification sweep), and how long verdict
// publication took. Spans are the flight-level complement to the
// registry's aggregate histograms — the registry answers "what is p99",
// the span ring answers "what did flight 1234 actually do".
type Span struct {
	// Flight is the flight's sequence number (the server's flight
	// counter at dispatch).
	Flight int64 `json:"flight"`
	// Start is when the flight was dispatched into the kernel.
	Start time.Time `json:"start"`
	// Merged is how many establish requests the flight decided.
	Merged int `json:"merged"`
	// WaitNs is the longest time any merged request spent queued before
	// the flight dispatched (the coalesce wait).
	WaitNs int64 `json:"waitNs"`
	// AdmitNs is the duration of the merged kernel admission pass.
	AdmitNs int64 `json:"admitNs"`
	// VerifyNs is the portion of AdmitNs spent in the EDF verification
	// sweep (from the kernel's sweep-time counter delta).
	VerifyNs int64 `json:"verifyNs"`
	// PublishNs is how long publishing the verdicts on the watch feed
	// took; the flight is recorded before its verdicts are posted.
	PublishNs int64 `json:"publishNs"`
	// Accepted and Rejected split the flight's verdicts.
	Accepted int `json:"accepted"`
	Rejected int `json:"rejected"`
}

// SpanRing is a bounded, concurrency-safe ring of the most recent
// spans. Recording overwrites the oldest entry once full; Snapshot
// returns oldest-first. The ring is off the admission hot path (one
// record per flight, not per request), so a mutex is fine here.
type SpanRing struct {
	mu   sync.Mutex
	buf  []Span
	next int
	full bool
}

// NewSpanRing returns a ring holding the last capacity spans
// (minimum 1).
func NewSpanRing(capacity int) *SpanRing {
	if capacity < 1 {
		capacity = 1
	}
	return &SpanRing{buf: make([]Span, capacity)}
}

// Record stores one span, evicting the oldest when full.
func (r *SpanRing) Record(s Span) {
	r.mu.Lock()
	r.buf[r.next] = s
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
	r.mu.Unlock()
}

// Snapshot returns the recorded spans oldest-first.
func (r *SpanRing) Snapshot() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.full {
		return append([]Span(nil), r.buf[:r.next]...)
	}
	out := make([]Span, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	out = append(out, r.buf[:r.next]...)
	return out
}

// Len returns how many spans are currently held.
func (r *SpanRing) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.full {
		return len(r.buf)
	}
	return r.next
}
