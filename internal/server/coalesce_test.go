package server

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/rtether"
)

// heldFlight is a coalescer over a star whose first flight stops at its
// first verdict until let is called: a flight held mid-decision.
type heldFlight struct {
	c       *coalescer
	net     *rtether.Network
	held    chan struct{} // closed once the first flight is held
	release chan struct{}
	letOnce sync.Once

	mu       sync.Mutex
	admitted []rtether.ChannelID // every admission the flights noted
	released []rtether.ChannelID // every channel given back for a caller that left
	recorded int                 // flights recorded
}

// newHeldFlight builds a heldFlight over a star of nodes 1..nodes, torn
// down with the test.
func newHeldFlight(t *testing.T, nodes int) *heldFlight {
	h := &heldFlight{net: rtether.New(), held: make(chan struct{}), release: make(chan struct{})}
	for i := 1; i <= nodes; i++ {
		h.net.MustAddNode(rtether.NodeID(i))
	}
	var first sync.Once
	note := func(_ rtether.ChannelSpec, _ []rtether.NodeID, ch *rtether.Channel, _ error) {
		if ch != nil {
			h.mu.Lock()
			h.admitted = append(h.admitted, ch.ID())
			h.mu.Unlock()
		}
		first.Do(func() { close(h.held); <-h.release })
	}
	noteRelease := func(id rtether.ChannelID) {
		h.mu.Lock()
		h.released = append(h.released, id)
		h.mu.Unlock()
	}
	noteFlight := func(flightRecord) {
		h.mu.Lock()
		h.recorded++
		h.mu.Unlock()
	}
	h.c = newCoalescer(h.net, 0, note, noteRelease, noteFlight)
	t.Cleanup(func() { h.let(); h.c.close(); _ = h.net.Close() })
	return h
}

// let releases the held flight.
func (h *heldFlight) let() { h.letOnce.Do(func() { close(h.release) }) }

// result is one caller's answer from the coalescer.
type result struct {
	ch  *rtether.Channel
	err error
}

// submit establishes a 1 → dst channel from a new caller and returns
// where its answer arrives.
func (h *heldFlight) submit(ctx context.Context, dst rtether.NodeID) <-chan result {
	out := make(chan result, 1)
	go func() {
		ch, err := h.c.establish(ctx, rtether.ChannelSpec{Src: 1, Dst: dst, C: 1, P: 1000, D: 400})
		out <- result{ch, err}
	}()
	return out
}

// awaitSubmitted waits until n callers have entered the coalescer, then
// gives the last of them a moment to queue.
func (h *heldFlight) awaitSubmitted(t *testing.T, n int64) {
	t.Helper()
	for end := time.Now().Add(10 * time.Second); h.c.establishes.Load() < n; time.Sleep(time.Millisecond) {
		if time.Now().After(end) {
			t.Fatalf("%d of %d callers submitted", h.c.establishes.Load(), n)
		}
	}
	time.Sleep(5 * time.Millisecond)
}

// answer waits for one caller's answer.
func answer(t *testing.T, out <-chan result) result {
	t.Helper()
	select {
	case r := <-out:
		return r
	case <-time.After(10 * time.Second):
		t.Fatal("a caller got no answer")
		return result{}
	}
}

// TestCoalescerCanceledWhileQueued cancels a request that queued behind
// a held flight: it returns its context error and never reaches the
// kernel, which decides only the held flight's request.
func TestCoalescerCanceledWhileQueued(t *testing.T) {
	h := newHeldFlight(t, 4)
	a := h.submit(context.Background(), 2)
	<-h.held
	ctx, cancel := context.WithCancel(context.Background())
	b := h.submit(ctx, 3)
	h.awaitSubmitted(t, 2)
	cancel()
	h.let()
	if r := answer(t, b); r.ch != nil || !errors.Is(r.err, context.Canceled) {
		t.Fatalf("canceled while queued: %v, %v; want context.Canceled", r.ch, r.err)
	}
	if r := answer(t, a); r.err != nil {
		t.Fatalf("held flight's request: %v", r.err)
	}
	if got := h.net.AdmissionStats().Requests; got != 1 {
		t.Fatalf("the kernel decided %d requests, want only the held flight's 1", got)
	}
	if got := len(h.net.Channels()); got != 1 {
		t.Fatalf("%d channels live, want 1", got)
	}
}

// TestCoalescerCanceledDuringFlight cancels a request while its flight
// is held: the flight admits it, then gives the channel back, and the
// caller gets its context error.
func TestCoalescerCanceledDuringFlight(t *testing.T) {
	h := newHeldFlight(t, 4)
	ctx, cancel := context.WithCancel(context.Background())
	a := h.submit(ctx, 2)
	<-h.held
	cancel()
	h.let()
	if r := answer(t, a); r.ch != nil || !errors.Is(r.err, context.Canceled) {
		t.Fatalf("canceled during its flight: %v, %v; want context.Canceled", r.ch, r.err)
	}
	if got := len(h.net.Channels()); got != 0 {
		t.Fatalf("%d channels live after the caller left, want 0", got)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.admitted) != 1 || len(h.released) != 1 || h.released[0] != h.admitted[0] {
		t.Fatalf("admitted %v, released %v; want the one admission released", h.admitted, h.released)
	}
}

// TestCoalescerCloseLandsFlight closes the coalescer with a flight held
// and requests queued behind it: close returns only once the flight has
// landed, every caller gets one answer, a verdict or ErrClosed, the
// live channels are exactly the admissions answered, and a later
// request is refused.
func TestCoalescerCloseLandsFlight(t *testing.T) {
	const queued = 8
	h := newHeldFlight(t, queued+2)
	outs := []<-chan result{h.submit(context.Background(), 2)}
	<-h.held
	for i := 0; i < queued; i++ {
		outs = append(outs, h.submit(context.Background(), rtether.NodeID(3+i)))
	}
	h.awaitSubmitted(t, queued+1)
	closed := make(chan struct{})
	go func() { h.c.close(); close(closed) }()
	select {
	case <-closed:
		t.Fatal("close returned while a flight was held")
	case <-time.After(20 * time.Millisecond):
	}
	h.let()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("close never returned after the flight landed")
	}
	h.mu.Lock()
	recorded := h.recorded
	h.mu.Unlock()
	if recorded == 0 {
		t.Fatal("close returned before the held flight landed")
	}
	admitted := 0
	for i, out := range outs {
		switch r := answer(t, out); {
		case r.err == nil && r.ch != nil:
			admitted++
		case errors.Is(r.err, rtether.ErrClosed):
		default:
			t.Errorf("caller %d: %v, %v; want a channel or ErrClosed", i, r.ch, r.err)
		}
	}
	if admitted == 0 {
		t.Error("the held flight's request was not admitted")
	}
	if got := len(h.net.Channels()); got != admitted {
		t.Fatalf("%d channels live, %d admissions answered", got, admitted)
	}
	if _, err := h.c.establish(context.Background(), rtether.ChannelSpec{Src: 1, Dst: 2, C: 1, P: 1000, D: 400}); !errors.Is(err, rtether.ErrClosed) {
		t.Fatalf("establish after close: %v, want ErrClosed", err)
	}
}

// TestNewStartsNoCoalescerGoroutine builds a server without a heartbeat:
// nothing runs until a request arrives, so New starts no goroutine.
func TestNewStartsNoCoalescerGoroutine(t *testing.T) {
	rtnet := rtether.New()
	rtnet.MustAddNode(1)
	rtnet.MustAddNode(2)
	defer rtnet.Close()
	before := runtime.NumGoroutine()
	s := New(Config{Network: rtnet})
	after := runtime.NumGoroutine()
	s.Close()
	if after > before {
		t.Fatalf("New started %d goroutines, want none", after-before)
	}
}
