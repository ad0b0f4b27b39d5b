package server

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/rtether"
)

// pending is one establish request waiting to be merged into a flight:
// a unicast channel when sinks is nil, a multicast tree otherwise.
type pending struct {
	spec  rtether.ChannelSpec
	sinks []rtether.NodeID
	ctx   context.Context
	out   chan verdict // buffered(1); a flight or close posts exactly one verdict
	enq   time.Time    // when the request entered the queue (coalesce-wait accounting)
}

// flightRecord summarizes one merged admission flight for the
// observability layer: how many requests merged, the longest queue wait
// among them, how long the kernel pass and verdict fan-out took, and
// the accept/reject split. One record per flight — off the per-request
// hot path.
type flightRecord struct {
	start     time.Time
	merged    int
	waitNs    int64
	admitNs   int64
	publishNs int64
	accepted  int
	rejected  int
}

// verdict is the per-request outcome of a flight.
type verdict struct {
	ch  *rtether.Channel
	err error
}

// coalescer is the merging front-end for establish requests: concurrent
// requests — unicast and multicast alike — that arrive while a merged
// admission pass ("flight") is in progress, or within the configured
// window, are batched into one Network.EstablishEachMixed call, so N
// clients cost one repartition and one verification sweep instead of
// N. Each request still receives its own verdict, so coalescing is
// invisible to callers except in latency and AdmissionStats.Repartitions.
//
// Flights are group commits under one mutex, one at a time: a caller
// that finds no flight in progress leads, flying the queue (its own
// request included) inline. What queues during a flight merges into
// the next, flown by one goroutine the leader starts, which exits when
// the queue is empty.
type coalescer struct {
	net    *rtether.Network
	window time.Duration
	// note receives every verdict and noteRelease every
	// released-after-cancel channel (for the watch feed); either may be
	// nil.
	note        func(spec rtether.ChannelSpec, sinks []rtether.NodeID, ch *rtether.Channel, err error)
	noteRelease func(id rtether.ChannelID)
	// noteFlight receives one record per merged flight, before any of
	// its verdicts is posted, so a client that reads the flight
	// recorder after its verdict finds its flight; nil disables flight
	// recording.
	noteFlight func(flightRecord)

	mu     sync.Mutex
	landed sync.Cond  // broadcast when the flights stop: the queue is empty
	queue  []*pending // requests waiting for the next flight, one per blocked caller
	flying bool       // a flight is in progress or about to start
	closed bool

	establishes atomic.Int64
	flights     atomic.Int64
	maxMerged   atomic.Int64
}

// maxBatch caps how many establish requests merge into one flight, and
// how many frames one binary connection may have in flight.
const maxBatch = 1024

// newCoalescer builds the front-end; it starts nothing. window > 0
// holds each flight back up to that long to let more requests join;
// window == 0 (the recommended default) merges exactly what queued
// while the previous flight ran, adding no idle latency.
func newCoalescer(net *rtether.Network, window time.Duration, note func(rtether.ChannelSpec, []rtether.NodeID, *rtether.Channel, error), noteRelease func(rtether.ChannelID), noteFlight func(flightRecord)) *coalescer {
	c := &coalescer{
		net:         net,
		window:      window,
		note:        note,
		noteRelease: noteRelease,
		noteFlight:  noteFlight,
	}
	c.landed.L = &c.mu
	return c
}

// establish submits one unicast spec (see submit).
func (c *coalescer) establish(ctx context.Context, spec rtether.ChannelSpec) (*rtether.Channel, error) {
	return c.submit(&pending{spec: spec, ctx: ctx, out: make(chan verdict, 1)})
}

// establishMulticast submits one multicast request into the same merge
// queue as unicast establishes: the distribution tree joins the next
// flight and is decided inside the merged kernel pass with its own
// verdict (Network.EstablishEachMixed).
func (c *coalescer) establishMulticast(ctx context.Context, spec rtether.MulticastSpec) (*rtether.Channel, error) {
	return c.submit(&pending{spec: spec.ChannelSpec(), sinks: spec.Sinks, ctx: ctx, out: make(chan verdict, 1)})
}

// submit queues one request and blocks until its verdict arrives, the
// context is canceled, or the coalescer shuts down. A leader that finds
// more queued after its flight hands them to one goroutine and returns.
func (c *coalescer) submit(p *pending) (*rtether.Channel, error) {
	p.enq = time.Now()
	c.establishes.Add(1)
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, rtether.ErrClosed
	}
	c.queue = append(c.queue, p)
	lead := !c.flying
	c.flying = true
	c.mu.Unlock()
	if !lead {
		return c.await(p)
	}
	if c.flight() {
		go func() {
			for c.flight() {
			}
		}()
	}
	v := <-p.out
	return v.ch, v.err
}

// await waits for a queued request's verdict. A caller whose context
// ends takes its request off the queue; if it already joined a flight,
// the caller waits for the verdict anyway, so that an admission is
// given back, never stranded unread.
func (c *coalescer) await(p *pending) (*rtether.Channel, error) {
	select {
	case v := <-p.out:
		return v.ch, v.err
	case <-p.ctx.Done():
	}
	c.mu.Lock()
	if i := slices.Index(c.queue, p); i >= 0 {
		c.queue = slices.Delete(c.queue, i, i+1)
		c.mu.Unlock()
		return nil, p.ctx.Err()
	}
	c.mu.Unlock()
	c.releaseOrphan(<-p.out)
	return nil, p.ctx.Err()
}

// releaseOrphan gives back a channel admitted for a caller that is no
// longer listening.
func (c *coalescer) releaseOrphan(v verdict) {
	if v.ch == nil {
		return
	}
	id := v.ch.ID()
	if v.ch.Release() == nil && c.noteRelease != nil {
		c.noteRelease(id)
	}
}

// flight holds the next flight back for the window, then flies up to
// maxBatch queued requests. It reports whether more requests queued
// meanwhile; if none did, the flights stop until the next leader.
func (c *coalescer) flight() (more bool) {
	time.Sleep(c.window) // at once when the window is 0
	c.mu.Lock()
	batch := c.queue
	if len(batch) > maxBatch {
		batch, c.queue = batch[:maxBatch:maxBatch], batch[maxBatch:]
	} else {
		c.queue = nil
	}
	c.mu.Unlock()
	c.fly(batch)
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.queue) > 0 {
		return true
	}
	c.flying = false
	c.landed.Broadcast()
	return false
}

// close fails every queued request with ErrClosed, refuses later ones,
// and waits for the flight in progress to land. Idempotent.
func (c *coalescer) close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	for _, p := range c.queue {
		p.out <- verdict{err: rtether.ErrClosed}
	}
	c.queue = nil
	for c.flying {
		c.landed.Wait()
	}
}

// fly decides one merged batch. Requests whose context died while
// queued are answered with their context error without entering the
// kernel; requests whose context died during the flight are decided,
// then released if admitted. The watch feed and the flight record are
// written before the first verdict is posted.
func (c *coalescer) fly(batch []*pending) {
	live := batch[:0]
	for _, p := range batch {
		if err := p.ctx.Err(); err != nil {
			p.out <- verdict{err: err}
			continue
		}
		live = append(live, p)
	}
	if len(live) == 0 {
		return
	}
	reqs := make([]rtether.EstablishReq, len(live))
	start := time.Now()
	var waitNs int64
	for i, p := range live {
		reqs[i] = rtether.EstablishReq{Spec: p.spec, Sinks: p.sinks}
		if w := start.Sub(p.enq).Nanoseconds(); w > waitNs {
			waitNs = w
		}
	}
	c.flights.Add(1)
	if n := int64(len(live)); n > c.maxMerged.Load() {
		c.maxMerged.Store(n)
	}
	chs, errs := c.net.EstablishEachMixed(reqs)
	admitDone := time.Now()
	accepted := 0
	for i, p := range live {
		ch, err := chs[i], errs[i]
		if ch != nil {
			accepted++
		}
		if c.note != nil {
			c.note(p.spec, p.sinks, ch, err)
		}
		if ch != nil && p.ctx.Err() != nil {
			// Admitted for a client that hung up: give the bandwidth back.
			c.releaseOrphan(verdict{ch: ch})
			chs[i], errs[i] = nil, p.ctx.Err()
		}
	}
	if c.noteFlight != nil {
		c.noteFlight(flightRecord{
			start:     start,
			merged:    len(live),
			waitNs:    waitNs,
			admitNs:   admitDone.Sub(start).Nanoseconds(),
			publishNs: time.Since(admitDone).Nanoseconds(),
			accepted:  accepted,
			rejected:  len(live) - accepted,
		})
	}
	for i, p := range live {
		p.out <- verdict{ch: chs[i], err: errs[i]}
	}
}
