package sched

// FCFSQueue is the first-come-first-serve queue for non-real-time traffic
// (§18.2.1: outgoing non-real-time traffic "typically uses TCP and is put
// in a FCFS-sorted queue in the RT layer"). It is a bounded ring buffer:
// when full, new arrivals are dropped and counted, which models the
// best-effort nature of non-RT traffic under RT load.
//
// The zero value is an unbounded queue; use NewFCFSQueue for a bound.
// Not safe for concurrent use.
type FCFSQueue[T any] struct {
	buf   []T
	head  int
	n     int
	cap   int // 0 = unbounded
	drops int64
}

// NewFCFSQueue returns a queue that holds at most capacity frames;
// capacity <= 0 means unbounded.
func NewFCFSQueue[T any](capacity int) *FCFSQueue[T] {
	if capacity < 0 {
		capacity = 0
	}
	return &FCFSQueue[T]{cap: capacity}
}

// Len returns the number of queued frames.
func (q *FCFSQueue[T]) Len() int { return q.n }

// Drops returns the number of frames rejected because the queue was full.
func (q *FCFSQueue[T]) Drops() int64 { return q.drops }

// Push appends a frame; it reports false (and counts a drop) when the
// queue is at capacity.
func (q *FCFSQueue[T]) Push(payload T) bool {
	if q.cap > 0 && q.n >= q.cap {
		q.drops++
		return false
	}
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)%len(q.buf)] = payload
	q.n++
	return true
}

// Pop removes and returns the oldest frame; false when empty.
func (q *FCFSQueue[T]) Pop() (T, bool) {
	var zero T
	if q.n == 0 {
		return zero, false
	}
	p := q.buf[q.head]
	q.buf[q.head] = zero
	q.head = (q.head + 1) % len(q.buf)
	q.n--
	return p, true
}

// Peek returns the oldest frame without removing it; false when empty.
func (q *FCFSQueue[T]) Peek() (T, bool) {
	if q.n == 0 {
		var zero T
		return zero, false
	}
	return q.buf[q.head], true
}

func (q *FCFSQueue[T]) grow() {
	newCap := len(q.buf) * 2
	if newCap == 0 {
		newCap = 8
	}
	if q.cap > 0 && newCap > q.cap {
		newCap = q.cap
	}
	nb := make([]T, newCap)
	for i := 0; i < q.n; i++ {
		nb[i] = q.buf[(q.head+i)%len(q.buf)]
	}
	q.buf = nb
	q.head = 0
}
