// Package sched implements the output queues of the RT layer (§18.2.1,
// Fig. 18.2): a deadline-sorted queue for real-time frames, an FCFS queue
// for non-real-time frames, and the per-port scheduler that serves the RT
// queue with strict priority over the FCFS queue.
package sched

// Item is one queued frame. The scheduler only needs the sort key (the
// absolute deadline in slots); the payload travels untouched.
type Item[T any] struct {
	Deadline int64 // absolute deadline used as the EDF sort key
	Payload  T     // the frame

	seq uint64 // insertion sequence for stable FIFO tie-breaking
}

// before is the queue order: deadline, then insertion.
func (a *Item[T]) before(b *Item[T]) bool {
	if a.Deadline != b.Deadline {
		return a.Deadline < b.Deadline
	}
	return a.seq < b.seq
}

// EDF is the deadline-sorted output queue: Pop always returns the frame
// with the earliest absolute deadline, breaking ties in insertion order
// so that equal-deadline frames stay FIFO (deterministic and
// starvation-free among ties). It is a binary min-heap of values: a Push
// allocates only when the backing array grows.
//
// The zero value is ready to use. Not safe for concurrent use.
type EDF[T any] struct {
	h   []Item[T]
	seq uint64
}

// EDFQueue is the EDF queue of opaque payloads.
type EDFQueue = EDF[any]

// Len returns the number of queued frames.
func (q *EDF[T]) Len() int { return len(q.h) }

// Push enqueues a frame with the given absolute deadline.
func (q *EDF[T]) Push(deadline int64, payload T) {
	q.h = append(q.h, Item[T]{Deadline: deadline, Payload: payload, seq: q.seq})
	q.seq++
	h := q.h
	for i := len(h) - 1; i > 0 && h[i].before(&h[(i-1)/2]); i = (i - 1) / 2 {
		h[i], h[(i-1)/2] = h[(i-1)/2], h[i]
	}
}

// Pop removes and returns the earliest-deadline frame. It returns false
// when the queue is empty.
func (q *EDF[T]) Pop() (Item[T], bool) {
	h := q.h
	if len(h) == 0 {
		return Item[T]{}, false
	}
	top, n := h[0], len(h)-1
	h[0], h[n] = h[n], Item[T]{}
	h = h[:n]
	q.h = h
	for i := 0; ; {
		m, l := i, 2*i+1
		if l < n && h[l].before(&h[m]) {
			m = l
		}
		if r := l + 1; r < n && h[r].before(&h[m]) {
			m = r
		}
		if m == i {
			return top, true
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// Peek returns the earliest-deadline frame without removing it.
func (q *EDF[T]) Peek() (Item[T], bool) {
	if len(q.h) == 0 {
		return Item[T]{}, false
	}
	return q.h[0], true
}
