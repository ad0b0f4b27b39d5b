// Package sim provides a deterministic discrete-event simulation engine in
// integer virtual time. Time is measured in timeslots (one slot = the
// transmission time of one maximal-sized Ethernet frame), matching the
// unit system of the paper's analysis. Determinism is total: events at the
// same instant run in (priority, scheduling order), so two runs of the
// same scenario produce identical traces — the property that makes a Go
// reproduction of a hard-real-time system meaningful despite GC jitter.
// Pending events wait in a calendar queue: one-slot buckets for the next
// 8192 slots, a min-heap for those further out.
package sim

import (
	"fmt"
	"math/bits"
	"slices"
)

// Priority orders events that fire at the same instant. Lower runs first.
// The network model uses three phases per slot boundary: frame deliveries
// land first, then traffic sources release new frames, then transmitters
// decide what to send in the coming slot — so a decision always sees every
// frame that exists at that instant.
type Priority int

// Standard phases of one slot boundary.
const (
	PrioDeliver Priority = 0 // frame receptions, shaper releases
	PrioRelease Priority = 1 // periodic source releases
	PrioDecide  Priority = 2 // transmit decisions
)

// The wheel's span: sources re-arm at most a period ahead (100 slots on
// the paper's star, 400–500 on the fabrics), best-effort generators up
// to 1000 slots and a fabric's shaper holds up to a hop-local deadline
// ahead (4 000–6 000 slots end to end on the fabric-churn line), so all
// of them land in a bucket; only longer waits take the heap.
const (
	wheelSize = 8192
	wheelMask = wheelSize - 1
	minCap    = 4 // capacity of a bucket's first array
	dense     = 3 // pool of the arrays of minCap<<dense events or more
)

type event struct {
	at   int64
	prio Priority
	seq  uint64
	fn   func()
}

// before is the firing order: (at, prio, seq).
func (a *event) before(b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.prio != b.prio {
		return a.prio < b.prio
	}
	return a.seq < b.seq
}

// queued is an event on the wheel, where its bucket stands for at and
// its place in the bucket for seq.
type queued struct {
	prio Priority
	fn   func()
}

// farHeap is a binary min-heap of the events beyond the wheel's reach.
type farHeap []event

func (h *farHeap) push(ev event) {
	*h = append(*h, ev)
	s := *h
	for i := len(s) - 1; i > 0 && s[i].before(&s[(i-1)/2]); i = (i - 1) / 2 {
		s[i], s[(i-1)/2] = s[(i-1)/2], s[i]
	}
}

func (h *farHeap) pop() event {
	s := *h
	top, n := s[0], len(s)-1
	s[0], s[n] = s[n], event{}
	*h = s[:n]
	for i, m := 0, 0; ; i = m {
		for _, c := range [2]int{2*i + 1, 2*i + 2} {
			if c < n && s[c].before(&s[m]) {
				m = c
			}
		}
		if m == i {
			return top
		}
		s[i], s[m] = s[m], s[i]
	}
}

// Engine is a single-threaded discrete-event scheduler. It is not safe
// for concurrent use; the whole simulation runs on one goroutine (shared
// memory never races because nothing is shared across goroutines — "do
// not communicate by sharing memory" taken to its deterministic extreme).
// Concurrency lives one layer up: rtether.Network only touches the
// engine under its write lock, so the engine always observes the
// single-goroutine discipline it assumes. An event may run the engine
// itself (a nested Step or RunUntil): the nested run finishes the
// interrupted instant, and the clock never goes back.
type Engine struct {
	now   int64
	seq   uint64
	fired int64

	// wheel[t&wheelMask] holds the events due at instant t for
	// now <= t < now+wheelSize, one instant per bucket, in (prio, seq)
	// order; head counts the fired events of now's bucket, which is
	// released once its last one fires. The wheel is made by the first
	// event, so a network that only admits never pays for it. Only the
	// instants next to now are dense (a slot's deliveries and transmit
	// decisions), so bucket arrays circulate: pools[k] holds the free
	// ones of capacity minCap<<k, and pools[dense] those of any larger
	// size. A bucket that fills a sparse array trades it for one of the
	// next class, a full dense array is replaced by one twice its size,
	// and a drained bucket gives its array back. Once the dense arrays
	// have grown to the densest instant, scheduling allocates nothing.
	wheel   *[wheelSize][]queued
	head    int
	inWheel int
	pools   [dense + 1][][]queued
	// far holds the events scheduled wheelSize or more slots ahead until
	// the clock brings them within reach.
	far farHeap
}

// NewEngine returns an engine at time zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current virtual time in slots.
func (e *Engine) Now() int64 { return e.now }

// Fired returns the total number of events executed (diagnostics).
func (e *Engine) Fired() int64 { return e.fired }

// Pending returns the number of scheduled events not yet run.
func (e *Engine) Pending() int { return e.inWheel + len(e.far) }

// At schedules fn at absolute time t with PrioDeliver. Scheduling in the
// past panics — that is always a model bug.
func (e *Engine) At(t int64, fn func()) { e.AtPrio(t, PrioDeliver, fn) }

// AtPrio schedules fn at absolute time t in the given phase. A model
// binds what it schedules again and again (a transmitter's slot, a
// periodic release) once, so scheduling it allocates nothing.
func (e *Engine) AtPrio(t int64, prio Priority, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling at %d before now %d", t, e.now))
	}
	ev := event{at: t, prio: prio, seq: e.seq, fn: fn}
	e.seq++
	if t-e.now >= wheelSize {
		e.far.push(ev)
	} else {
		e.insert(ev)
	}
}

// insert files ev in its instant's bucket. Every unfired event already
// there precedes ev in scheduling order — a far event reaches the wheel
// before anything can be scheduled directly at its instant — so ev goes
// behind all of them but those of a later phase.
func (e *Engine) insert(ev event) {
	if e.wheel == nil {
		e.wheel = new([wheelSize][]queued)
	}
	b := &e.wheel[ev.at&wheelMask]
	i, lo := len(*b), 0
	if ev.at == e.now {
		lo = e.head
	}
	if full := *b; i == cap(full) && i >= minCap<<dense {
		*b = slices.Grow(full, i)
	} else if i == cap(full) {
		*b = append(e.take(bits.Len(uint(i/minCap))), full...)
		clear(full)
		e.give(full)
	}
	for i > lo && (*b)[i-1].prio > ev.prio {
		i--
	}
	if q := (queued{ev.prio, ev.fn}); i == len(*b) {
		*b = append(*b, q)
	} else {
		*b = slices.Insert(*b, i, q)
	}
	e.inWheel++
}

// take returns an empty array of capacity minCap<<k, or at least that
// for k = dense.
func (e *Engine) take(k int) []queued {
	if p := e.pools[k]; len(p) > 0 {
		a := p[len(p)-1]
		p[len(p)-1] = nil
		e.pools[k] = p[:len(p)-1]
		return a
	}
	return make([]queued, 0, minCap<<k)
}

// give returns a bucket's array, whose events have all fired or moved,
// to its pool.
func (e *Engine) give(a []queued) {
	if cap(a) > 0 {
		k := min(bits.Len(uint(cap(a)/minCap))-1, dense)
		e.pools[k] = append(e.pools[k], a[:0])
	}
}

// advance sets the clock to t and moves the far events now within the
// wheel's reach onto it, in firing order.
func (e *Engine) advance(t int64) {
	for e.now = t; len(e.far) > 0 && e.far[0].at-t < wheelSize; {
		e.insert(e.far.pop())
	}
}

// next returns the earliest instant with a pending event. Far events
// are all beyond the wheel, so they count only when it is empty.
func (e *Engine) next() (int64, bool) {
	if e.inWheel > 0 {
		for t := e.now; ; t++ {
			if len(e.wheel[t&wheelMask]) > 0 {
				return t, true
			}
		}
	}
	if len(e.far) > 0 {
		return e.far[0].at, true
	}
	return 0, false
}

// fire advances the clock to t and runs the events due then, including
// those they schedule at t, until the instant is done or a nested run
// has moved the clock on.
func (e *Engine) fire(t int64) {
	e.advance(t)
	b := &e.wheel[t&wheelMask]
	for e.now == t && e.head < len(*b) {
		fn := (*b)[e.head].fn
		(*b)[e.head].fn = nil
		if e.head++; e.head == len(*b) {
			e.give(*b)
			*b, e.head = nil, 0
		}
		e.inWheel--
		e.fired++
		fn()
	}
}

// After schedules fn d slots from now (d >= 0) with PrioDeliver.
func (e *Engine) After(d int64, fn func()) { e.AtPrio(e.now+d, PrioDeliver, fn) }

// Step runs every event at the earliest pending instant (all priorities)
// and advances the clock to it. It reports false when no events remain.
func (e *Engine) Step() bool {
	t, ok := e.next()
	if ok {
		e.fire(t)
	}
	return ok
}

// RunUntil executes all events with time <= horizon and then sets the
// clock to horizon. Events scheduled during execution are honored if they
// fall within the horizon.
func (e *Engine) RunUntil(horizon int64) {
	for {
		t, ok := e.next()
		if !ok || t > horizon {
			break
		}
		e.fire(t)
	}
	if e.now < horizon {
		e.advance(horizon)
	}
}

// Drain runs events until none remain or the event budget is exhausted,
// returning true if the queue emptied. The budget guards against
// self-perpetuating models (periodic sources never stop by themselves).
func (e *Engine) Drain(budget int64) bool {
	for i := int64(0); i < budget; i++ {
		if !e.Step() {
			return true
		}
	}
	return e.Pending() == 0
}
