package server

import (
	"context"
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
	out   chan verdict // buffered(1); the flight posts exactly one verdict
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
// clients cost one repartition and one verification sweep instead of N. Each request still receives its own
// accept/reject verdict (the kernel's per-spec batch admission), so
// coalescing is invisible to callers except in latency and in
// AdmissionStats.Repartitions.
//
// A single dispatcher goroutine owns the batching loop; requests queue
// on a buffered channel, which is what makes "merge while in flight"
// happen naturally — everything that queued during the previous
// EstablishEach is drained into the next flight in one gulp.
type coalescer struct {
	net    *rtether.Network
	window time.Duration
	// note receives every verdict and noteRelease every
	// released-after-cancel channel (for the watch feed); either may be
	// nil.
	note        func(spec rtether.ChannelSpec, sinks []rtether.NodeID, ch *rtether.Channel, err error)
	noteRelease func(id rtether.ChannelID)
	// noteFlight receives one record per merged flight, after its
	// verdicts posted; nil disables flight recording.
	noteFlight func(flightRecord)

	reqs     chan *pending
	quit     chan struct{}
	done     chan struct{}
	quitOnce sync.Once

	establishes atomic.Int64
	flights     atomic.Int64
	maxMerged   atomic.Int64
}

// maxBatch caps how many establish requests merge into one flight, and
// how many frames one binary connection may have in flight.
const maxBatch = 1024

// newCoalescer starts the dispatcher. window > 0 additionally holds the
// first request of a batch back up to that long to let more requests
// join; window == 0 (the recommended default) merges exactly what
// queued while the previous flight ran, adding no idle latency.
func newCoalescer(net *rtether.Network, window time.Duration, note func(rtether.ChannelSpec, []rtether.NodeID, *rtether.Channel, error), noteRelease func(rtether.ChannelID), noteFlight func(flightRecord)) *coalescer {
	c := &coalescer{
		net:         net,
		window:      window,
		note:        note,
		noteRelease: noteRelease,
		noteFlight:  noteFlight,
		reqs:        make(chan *pending, maxBatch),
		quit:        make(chan struct{}),
		done:        make(chan struct{}),
	}
	go c.run()
	return c
}

// establish submits one spec and blocks until its verdict arrives, the
// context is canceled, or the coalescer shuts down. If the context is
// canceled after the request joined a flight, the flight still decides
// it — and releases the channel again if it was admitted, so a vanished
// client cannot leak a reservation.
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

// submit enqueues one request and blocks until its verdict arrives, the
// context is canceled, or the coalescer shuts down.
func (c *coalescer) submit(p *pending) (*rtether.Channel, error) {
	ctx := p.ctx
	p.enq = time.Now()
	c.establishes.Add(1)
	select {
	case <-c.quit:
		return nil, rtether.ErrClosed
	default:
	}
	select {
	case c.reqs <- p:
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-c.quit:
		return nil, rtether.ErrClosed
	}
	select {
	case v := <-p.out:
		return v.ch, v.err
	case <-ctx.Done():
		// Once enqueued, the request is answered exactly once — by a
		// flight or by the shutdown drain. Wait for that verdict even
		// though the caller is gone: if it was an admission, the
		// reservation must be given back, never stranded unread.
		select {
		case v := <-p.out:
			c.releaseOrphan(v)
			return nil, ctx.Err()
		case <-c.done:
			if v, ok := c.takeVerdict(p); ok {
				c.releaseOrphan(v)
			}
			return nil, ctx.Err()
		}
	case <-c.done:
		// Shutdown raced the enqueue. The dispatcher's final drain may
		// already have passed before our request landed in the queue, so
		// only a posted verdict counts — never block on one.
		if v, ok := c.takeVerdict(p); ok {
			return v.ch, v.err
		}
		return nil, rtether.ErrClosed
	}
}

// takeVerdict reads a posted verdict without blocking.
func (c *coalescer) takeVerdict(p *pending) (verdict, bool) {
	select {
	case v := <-p.out:
		return v, true
	default:
		return verdict{}, false
	}
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

// close stops the dispatcher and fails queued requests with ErrClosed.
// Idempotent.
func (c *coalescer) close() {
	c.quitOnce.Do(func() { close(c.quit) })
	<-c.done
}

// run is the dispatcher loop: wait for one request, gather the batch,
// fly it, repeat.
func (c *coalescer) run() {
	defer close(c.done)
	for {
		select {
		case <-c.quit:
			c.failQueued()
			return
		case p := <-c.reqs:
			c.fly(c.gather([]*pending{p}))
		}
	}
}

// gather accumulates requests into the batch: everything already queued
// always joins (that is the merge-while-in-flight behaviour); with a
// positive window the dispatcher also waits up to window for more.
func (c *coalescer) gather(batch []*pending) []*pending {
	for len(batch) < maxBatch {
		select {
		case p := <-c.reqs:
			batch = append(batch, p)
			continue
		default:
		}
		break
	}
	if c.window <= 0 || len(batch) >= maxBatch {
		return batch
	}
	timer := time.NewTimer(c.window)
	defer timer.Stop()
	for len(batch) < maxBatch {
		select {
		case p := <-c.reqs:
			batch = append(batch, p)
		case <-timer.C:
			return batch
		case <-c.quit:
			return batch
		}
	}
	return batch
}

// fly decides one merged batch. Requests whose context died while
// queued are answered with their context error without entering the
// kernel; requests whose context died during the flight are decided,
// then released if admitted.
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
			id := ch.ID()
			if ch.Release() == nil && c.noteRelease != nil {
				c.noteRelease(id)
			}
			p.out <- verdict{err: p.ctx.Err()}
			continue
		}
		p.out <- verdict{ch: ch, err: err}
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
}

// failQueued rejects everything still queued at shutdown.
func (c *coalescer) failQueued() {
	for {
		select {
		case p := <-c.reqs:
			p.out <- verdict{err: rtether.ErrClosed}
		default:
			return
		}
	}
}
