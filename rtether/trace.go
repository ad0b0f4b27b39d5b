package rtether

import "repro/internal/netsim"

// Tracing: the network can stream typed events (frame releases,
// deliveries, deadline misses, shaper holds, admission decisions,
// best-effort drops) to a Tracer — the flight-recorder pattern for
// debugging timing behaviour.
type (
	// Tracer receives every trace event.
	Tracer = netsim.Tracer
	// TraceEvent is one timestamped observation.
	TraceEvent = netsim.TraceEvent
	// EventKind labels a TraceEvent.
	EventKind = netsim.EventKind
	// RingTracer retains the most recent events.
	RingTracer = netsim.RingTracer
	// FilterTracer forwards only selected kinds.
	FilterTracer = netsim.FilterTracer
)

// Trace event kinds.
const (
	EvRelease    = netsim.EvRelease
	EvShaperHold = netsim.EvShaperHold
	EvDeliver    = netsim.EvDeliver
	EvMiss       = netsim.EvMiss
	EvAdmitted   = netsim.EvAdmitted
	EvRejected   = netsim.EvRejected
	EvNonRTDrop  = netsim.EvNonRTDrop
)

// NewRingTracer returns a flight recorder keeping the last capacity
// events (a default capacity when <= 0).
func NewRingTracer(capacity int) *RingTracer { return netsim.NewRingTracer(capacity) }

// SetTracer installs a tracer on the network; nil disables tracing. It
// reports whether the network streams trace events — both backends do
// (star and multi-switch fabric emit the same event-kind vocabulary; a
// parity test pins it), so the result is true on every current
// topology. The tracer is invoked on the goroutine driving the
// simulation, under the network lock, and must not call back into the
// Network or its channel handles: a tracer that did would deadlock.
func (n *Network) SetTracer(t Tracer) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.be.setTracer(t)
}
