// Package netsim models the paper's star network on top of the
// deterministic event engine: end-nodes and a store-and-forward switch
// connected by full-duplex links, with the RT layer's queues and EDF
// scheduling in both (Fig. 18.2), the establishment protocol of §18.2.2
// flowing as real encoded frames, and per-channel delay/deadline
// accounting at the receivers.
//
// Timing model: one slot is the transmission time of one maximal frame.
// A transmitter makes its scheduling decision at a slot boundary (after
// all deliveries and releases at that instant — the engine's priority
// phases guarantee the ordering) and the frame lands at the far end one
// slot later, plus the configured constant propagation delay. This is the
// paper's model exactly: all P, C and d are "expressed as the number of
// maximal sized frames", and T_latency is a system-specific constant
// (Eq. 18.1).
package netsim

import (
	"repro/internal/sched"
	"repro/internal/sim"
)

// transmitter drives one link direction: it owns the port's two output
// queues and transmits one frame per slot while work is pending. Its
// three events are bound once, and the frames on the wire wait in a
// FIFO: each lands a fixed 1+extra slots after its decision, one
// decision per slot, so they land in the order they were sent.
type transmitter struct {
	eng     *sim.Engine
	port    *sched.Port[[]byte]
	deliver func(payload []byte, class sched.Class)

	// extra is the constant propagation delay added to every delivery,
	// in whole slots (part of T_latency).
	extra int64

	// fault, when non-nil, may corrupt or drop a frame on the wire.
	fault func(slot int64, b []byte) []byte

	dropped int64 // frames the fault injector removed

	busy          bool
	decidePending bool
	busySlots     int64 // slots spent transmitting (observed utilization)

	wire                     sched.FCFSQueue[sent]
	decideFn, freeFn, landFn func() // decide, free and land, bound once
}

// sent is a frame on the wire.
type sent struct {
	b     []byte
	class sched.Class
}

func newTransmitter(eng *sim.Engine, cfg *Config, deliver func([]byte, sched.Class)) *transmitter {
	tx := &transmitter{
		eng:     eng,
		port:    sched.NewPortWithDiscipline[[]byte](cfg.NonRTQueueCap, cfg.Discipline),
		deliver: deliver,
		extra:   cfg.Propagation,
		fault:   cfg.FaultInjector,
	}
	tx.decideFn, tx.freeFn, tx.landFn = tx.decide, tx.free, tx.land
	return tx
}

// enqueueRT inserts an RT frame with its link-local absolute and relative
// deadlines and arms the transmitter.
func (tx *transmitter) enqueueRT(absDeadline, relDeadline int64, payload []byte) {
	tx.port.EnqueueRT(absDeadline, relDeadline, payload)
	tx.kick()
}

// enqueueNonRT appends a best-effort frame; false if the bounded FCFS
// queue dropped it.
func (tx *transmitter) enqueueNonRT(payload []byte) bool {
	ok := tx.port.EnqueueNonRT(payload)
	if ok {
		tx.kick()
	}
	return ok
}

// kick arranges a transmit decision at the current instant's decide phase
// unless one is already pending or a frame is in flight.
func (tx *transmitter) kick() {
	if tx.busy || tx.decidePending || !tx.port.Busy() {
		return
	}
	tx.decidePending = true
	tx.eng.AtPrio(tx.eng.Now(), sim.PrioDecide, tx.decideFn)
}

// decide dequeues the next frame per the port policy (EDF first, then
// FCFS) and puts it on the wire for one slot.
func (tx *transmitter) decide() {
	tx.decidePending = false
	if tx.busy {
		return
	}
	payload, class, ok := tx.port.Next()
	if !ok {
		return
	}
	tx.busy = true
	tx.busySlots++
	tx.wire.Push(sent{payload, class})
	// The link is free again after one slot (transmission time); the frame
	// lands after transmission plus propagation. Propagation does not
	// occupy the transmitter — links pipeline.
	now := tx.eng.Now()
	tx.eng.AtPrio(now+1, sim.PrioDeliver, tx.freeFn)
	tx.eng.AtPrio(now+1+tx.extra, sim.PrioDeliver, tx.landFn)
}

// free ends the transmission slot.
func (tx *transmitter) free() {
	tx.busy = false
	tx.kick()
}

// land delivers the oldest frame on the wire to the far end.
func (tx *transmitter) land() {
	f, _ := tx.wire.Pop()
	b := f.b
	if tx.fault != nil {
		if b = tx.fault(tx.eng.Now(), b); b == nil {
			tx.dropped++
			return
		}
	}
	tx.deliver(b, f.class)
}
