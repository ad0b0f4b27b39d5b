package sched

// Class labels which queue a dequeued frame came from.
type Class int

const (
	// ClassRT is a real-time frame from the deadline-sorted queue.
	ClassRT Class = iota
	// ClassNonRT is a best-effort frame from the FCFS queue.
	ClassNonRT
)

// String implements fmt.Stringer.
func (c Class) String() string {
	if c == ClassRT {
		return "rt"
	}
	return "non-rt"
}

// Discipline selects how the real-time queue of a port orders frames.
// The paper's system is EDF; FIFO and DM (Deadline-Monotonic fixed
// priority) exist for the comparison experiments — running an
// EDF-admitted channel set under a weaker discipline demonstrates why
// the admission test and the dispatcher must match.
type Discipline int

const (
	// DisciplineEDF orders by absolute deadline (the paper's scheduler).
	DisciplineEDF Discipline = iota
	// DisciplineFIFO ignores deadlines: pure arrival order.
	DisciplineFIFO
	// DisciplineDM orders by the channel's relative (link-local) deadline:
	// static priorities, FIFO within a priority.
	DisciplineDM
)

// String implements fmt.Stringer.
func (d Discipline) String() string {
	switch d {
	case DisciplineEDF:
		return "EDF"
	case DisciplineFIFO:
		return "FIFO"
	case DisciplineDM:
		return "DM"
	default:
		return "discipline(?)"
	}
}

// Port is the output stage of one link direction (one of the two queue
// pairs of Fig. 18.2, either in an end-node or on a switch port): a
// priority queue for RT frames (EDF by default) and an FCFS queue for
// everything else. RT frames are always served first; non-RT frames only
// flow when no RT frame is waiting. Within one slot granularity this is
// exactly the paper's behaviour — frames are maximal-sized, so a non-RT
// frame in flight delays an RT frame by less than one slot, which the
// slot-quantized analysis already accounts for.
type Port[T any] struct {
	rt         EDF[T]
	nonRT      *FCFSQueue[T]
	discipline Discipline

	sentRT    int64
	sentNonRT int64
}

// NewPort returns an EDF port whose non-RT queue holds at most nonRTCap
// frames (<= 0 for unbounded).
func NewPort[T any](nonRTCap int) *Port[T] {
	return NewPortWithDiscipline[T](nonRTCap, DisciplineEDF)
}

// NewPortWithDiscipline returns a port using the given RT queue ordering.
func NewPortWithDiscipline[T any](nonRTCap int, d Discipline) *Port[T] {
	return &Port[T]{nonRT: NewFCFSQueue[T](nonRTCap), discipline: d}
}

// EnqueueRT inserts an RT frame. absDeadline is the frame's link-local
// absolute deadline; relDeadline is its channel's link-local relative
// deadline. Which one orders the queue depends on the discipline (FIFO
// uses neither — the queue's insertion sequence already breaks ties in
// arrival order).
func (p *Port[T]) EnqueueRT(absDeadline, relDeadline int64, payload T) {
	switch p.discipline {
	case DisciplineFIFO:
		p.rt.Push(0, payload)
	case DisciplineDM:
		p.rt.Push(relDeadline, payload)
	default:
		p.rt.Push(absDeadline, payload)
	}
}

// EnqueueNonRT appends a best-effort frame; false if dropped.
func (p *Port[T]) EnqueueNonRT(payload T) bool {
	return p.nonRT.Push(payload)
}

// Next dequeues the frame to transmit in the coming slot: the
// earliest-deadline RT frame if any, otherwise the oldest non-RT frame.
// ok is false when the port is idle.
func (p *Port[T]) Next() (payload T, class Class, ok bool) {
	if it, got := p.rt.Pop(); got {
		p.sentRT++
		return it.Payload, ClassRT, true
	}
	if f, got := p.nonRT.Pop(); got {
		p.sentNonRT++
		return f, ClassNonRT, true
	}
	return payload, ClassRT, false
}

// Busy reports whether any frame is waiting.
func (p *Port[T]) Busy() bool { return p.rt.Len() > 0 || p.nonRT.Len() > 0 }

// QueuedRT returns the RT backlog length.
func (p *Port[T]) QueuedRT() int { return p.rt.Len() }

// QueuedNonRT returns the non-RT backlog length.
func (p *Port[T]) QueuedNonRT() int { return p.nonRT.Len() }

// Sent returns cumulative transmit counts per class.
func (p *Port[T]) Sent() (rt, nonRT int64) { return p.sentRT, p.sentNonRT }

// Drops returns the non-RT drop count.
func (p *Port[T]) Drops() int64 { return p.nonRT.Drops() }
