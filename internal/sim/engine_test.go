package sim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

func TestEngineRunsInTimeOrder(t *testing.T) {
	e := NewEngine()
	var got []int
	e.At(5, func() { got = append(got, 5) })
	e.At(1, func() { got = append(got, 1) })
	e.At(3, func() { got = append(got, 3) })
	e.RunUntil(10)
	want := []int{1, 3, 5}
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 10 {
		t.Errorf("Now = %d, want horizon 10", e.Now())
	}
}

func TestEnginePriorityPhases(t *testing.T) {
	e := NewEngine()
	var got []string
	e.AtPrio(2, PrioDecide, func() { got = append(got, "decide") })
	e.AtPrio(2, PrioDeliver, func() { got = append(got, "deliver") })
	e.AtPrio(2, PrioRelease, func() { got = append(got, "release") })
	e.RunUntil(2)
	want := []string{"deliver", "release", "decide"}
	if len(got) != 3 {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("phase order = %v, want %v", got, want)
		}
	}
}

func TestEngineFIFOWithinSamePriority(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 20; i++ {
		i := i
		e.AtPrio(1, PrioDeliver, func() { got = append(got, i) })
	}
	e.RunUntil(1)
	for i := range got {
		if got[i] != i {
			t.Fatalf("FIFO broken: %v", got)
		}
	}
}

func TestEngineEventsScheduledDuringStep(t *testing.T) {
	e := NewEngine()
	var got []string
	e.At(1, func() {
		got = append(got, "a")
		e.At(1, func() { got = append(got, "same-slot") }) // same instant, later seq
		e.At(2, func() { got = append(got, "next-slot") })
	})
	e.RunUntil(5)
	want := []string{"a", "same-slot", "next-slot"}
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestEngineSchedulingInPastPanics(t *testing.T) {
	e := NewEngine()
	e.At(5, func() {})
	e.RunUntil(5)
	defer func() {
		if recover() == nil {
			t.Error("scheduling in the past did not panic")
		}
	}()
	e.At(3, func() {})
}

func TestEngineAfter(t *testing.T) {
	e := NewEngine()
	fired := int64(-1)
	e.At(4, func() {
		e.After(3, func() { fired = e.Now() })
	})
	e.RunUntil(10)
	if fired != 7 {
		t.Errorf("After(3) from t=4 fired at %d, want 7", fired)
	}
}

func TestEngineRunUntilHonorsHorizon(t *testing.T) {
	e := NewEngine()
	fired := false
	e.At(100, func() { fired = true })
	e.RunUntil(99)
	if fired {
		t.Error("event beyond horizon fired")
	}
	if e.Pending() != 1 {
		t.Errorf("Pending = %d, want 1", e.Pending())
	}
	e.RunUntil(100)
	if !fired {
		t.Error("event at horizon did not fire")
	}
}

func TestEngineStepReturnsFalseWhenEmpty(t *testing.T) {
	e := NewEngine()
	if e.Step() {
		t.Error("Step on empty engine returned true")
	}
}

func TestEngineStepRunsWholeInstant(t *testing.T) {
	e := NewEngine()
	count := 0
	e.AtPrio(3, PrioDeliver, func() { count++ })
	e.AtPrio(3, PrioDecide, func() { count++ })
	e.At(9, func() { count += 10 })
	if !e.Step() {
		t.Fatal("Step returned false")
	}
	if count != 2 || e.Now() != 3 {
		t.Errorf("after first Step: count=%d now=%d, want 2 and 3", count, e.Now())
	}
}

// TestEngineExecutionOrderProperty fuzzes random schedules: execution
// order must be exactly (time, priority, scheduling sequence).
func TestEngineExecutionOrderProperty(t *testing.T) {
	type key struct {
		at   int64
		prio Priority
		seq  int
	}
	for trial := 0; trial < 100; trial++ {
		e := NewEngine()
		var got []key
		n := 50
		keys := make([]key, n)
		for i := 0; i < n; i++ {
			k := key{
				at:   int64((i * 7919) % 13),
				prio: Priority((i * 31) % 3),
				seq:  i,
			}
			keys[i] = k
			kk := k
			e.AtPrio(kk.at, kk.prio, func() { got = append(got, kk) })
		}
		e.RunUntil(20)
		if len(got) != n {
			t.Fatalf("trial %d: executed %d of %d", trial, len(got), n)
		}
		for i := 1; i < n; i++ {
			a, b := got[i-1], got[i]
			ok := a.at < b.at ||
				(a.at == b.at && a.prio < b.prio) ||
				(a.at == b.at && a.prio == b.prio && a.seq < b.seq)
			if !ok {
				t.Fatalf("trial %d: order violated at %d: %+v then %+v", trial, i, a, b)
			}
		}
	}
}

func TestEngineDrain(t *testing.T) {
	e := NewEngine()
	n := 0
	var reschedule func()
	reschedule = func() {
		n++
		if n < 5 {
			e.After(1, reschedule)
		}
	}
	e.At(0, reschedule)
	if !e.Drain(100) {
		t.Error("Drain did not empty a finite chain")
	}
	if n != 5 {
		t.Errorf("chain ran %d times, want 5", n)
	}

	// Infinite chain: budget must stop it.
	var forever func()
	forever = func() { e.After(1, forever) }
	e.After(1, forever)
	if e.Drain(50) {
		t.Error("Drain claimed to empty an infinite chain")
	}
	if e.Fired() == 0 {
		t.Error("Fired counter not advancing")
	}
}

// heapEngine is the engine before the calendar queue — one container/heap
// of *event ordered by (at, prio, seq) — kept as FuzzEngineOrder's oracle.
type heapEngine struct {
	now   int64
	seq   uint64
	queue eventHeap
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	if h[i].prio != h[j].prio {
		return h[i].prio < h[j].prio
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) {
	*h = append(*h, x.(*event))
}
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

func (e *heapEngine) Now() int64   { return e.now }
func (e *heapEngine) Pending() int { return len(e.queue) }

func (e *heapEngine) AtPrio(t int64, prio Priority, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling at %d before now %d", t, e.now))
	}
	ev := &event{at: t, prio: prio, seq: e.seq, fn: fn}
	e.seq++
	heap.Push(&e.queue, ev)
}

func (e *heapEngine) Step() bool {
	if len(e.queue) == 0 {
		return false
	}
	t := e.queue[0].at
	e.now = t
	for len(e.queue) > 0 && e.queue[0].at == t {
		ev := heap.Pop(&e.queue).(*event)
		ev.fn()
	}
	return true
}

func (e *heapEngine) RunUntil(horizon int64) {
	for len(e.queue) > 0 && e.queue[0].at <= horizon {
		e.Step()
	}
	if e.now < horizon {
		e.now = horizon
	}
}

func (e *heapEngine) Drain(budget int64) bool {
	for i := int64(0); i < budget; i++ {
		if !e.Step() {
			return true
		}
	}
	return len(e.queue) == 0
}

// scheduler is the surface FuzzEngineOrder drives on both engines.
type scheduler interface {
	Now() int64
	Pending() int
	AtPrio(t int64, prio Priority, fn func())
	Step() bool
	RunUntil(horizon int64)
	Drain(budget int64) bool
}

// orderScript replays one fuzz input on an engine and logs what it
// observes: every firing with its clock, and the clock, pending count
// and result after every top-level operation. Events read the input
// too, so they schedule more events — at their own instant, on the
// wheel or beyond it — and now and then run the engine themselves.
type orderScript struct {
	eng  scheduler
	data []byte
	pos  int
	ids  int64
	log  []logLine
}

// logLine is one observation: an event's firing (op < 0: id, clock) or
// the state after top-level operation op (clock, pending, result).
type logLine struct {
	op, id, now int64
	pending     int
	res         bool
}

func (s *orderScript) byte() byte {
	if s.pos >= len(s.data) {
		return 0
	}
	s.pos++
	return s.data[s.pos-1]
}

// delay draws a scheduling distance: mostly within a few slots, often
// across the wheel's edge, sometimes far beyond it.
func (s *orderScript) delay() int64 {
	b := int64(s.byte())
	switch b % 4 {
	case 0, 1:
		return b % 8
	case 2:
		return wheelSize - 8 + b%16
	default:
		return b * 37
	}
}

// prio draws any Priority AtPrio accepts, favouring the three phases.
func (s *orderScript) prio() Priority {
	b := s.byte()
	if b%2 == 0 {
		return Priority(b / 2 % 3)
	}
	return Priority(int8(b)) * 1000
}

func (s *orderScript) schedule() {
	id := s.ids
	s.ids++
	s.eng.AtPrio(s.eng.Now()+s.delay(), s.prio(), func() {
		s.log = append(s.log, logLine{op: -1, id: id, now: s.eng.Now()})
		switch c := s.byte(); c % 8 {
		case 0, 1, 2:
		case 3, 4:
			s.schedule()
		case 5:
			s.schedule()
			s.schedule()
		case 6:
			s.eng.Step()
		default:
			s.eng.RunUntil(s.eng.Now() + int64(c%32))
		}
	})
}

func (s *orderScript) run() []logLine {
	for op := int64(0); s.pos < len(s.data) && op < 200; op++ {
		res := false
		switch c := s.byte(); c % 5 {
		case 0, 1:
			s.schedule()
		case 2:
			s.eng.RunUntil(s.eng.Now() + int64(c)*int64(c%7))
		case 3:
			res = s.eng.Step()
		default:
			res = s.eng.Drain(int64(c % 9))
		}
		s.log = append(s.log, logLine{op: op, now: s.eng.Now(), pending: s.eng.Pending(), res: res})
	}
	res := s.eng.Drain(1 << 20)
	return append(s.log, logLine{op: 200, now: s.eng.Now(), pending: s.eng.Pending(), res: res})
}

// FuzzEngineOrder holds the calendar queue to the heap engine it
// replaced: for any schedule — same-instant events scheduled from
// inside events, events beyond the wheel, any Priority, horizons
// between events, Drain budgets, nested runs — the firing order and
// the clock must be identical.
func FuzzEngineOrder(f *testing.F) {
	f.Add([]byte{0, 3, 4, 0, 2, 5, 1, 9, 11, 3, 4, 2, 40, 3})
	f.Add([]byte{1, 6, 7, 0, 10, 2, 5, 2, 77, 0, 14, 255, 5, 3, 2, 200, 4, 3, 9})
	f.Add([]byte{0, 2, 1, 0, 6, 3, 0, 4, 3, 5, 1, 7, 31, 8, 2, 250, 13, 23, 4, 17})
	f.Fuzz(func(t *testing.T, data []byte) {
		data = data[:min(len(data), 1024)] // bounds an exec, and so minimization
		want := (&orderScript{eng: &heapEngine{}, data: data}).run()
		got := (&orderScript{eng: NewEngine(), data: data}).run()
		if !slices.Equal(got, want) {
			for k := range min(len(got), len(want)) {
				if got[k] != want[k] {
					t.Fatalf("line %d: calendar queue %+v, heap %+v", k, got[k], want[k])
				}
			}
			t.Fatalf("calendar queue logged %d lines, heap %d", len(got), len(want))
		}
	})
}

// BenchmarkEngineSteady runs the event mix of the data-plane simulation
// at its queue depth: about 9000 pending events, periodic sources
// re-arming one period ahead, each release queuing a transmit decision
// at once and a delivery the next slot, and best-effort arrivals spread
// up to 1000 slots ahead. One op is one fired event.
func BenchmarkEngineSteady(b *testing.B) {
	e := NewEngine()
	rng := rand.New(rand.NewSource(1))
	noop := func() {}
	deliver := func() { e.AtPrio(e.Now()+1, PrioDeliver, noop) }
	for i := 0; i < 500; i++ {
		period := int64(100 + 100*(i%5))
		var release func()
		release = func() {
			e.AtPrio(e.Now(), PrioDecide, deliver)
			e.AtPrio(e.Now()+period, PrioRelease, release)
		}
		e.AtPrio(int64(i)%period, PrioRelease, release)
	}
	var arrival func()
	arrival = func() { e.At(e.Now()+1+rng.Int63n(1000), arrival) }
	for i := 0; i < 8000; i++ {
		e.At(rng.Int63n(1000), arrival)
	}
	e.RunUntil(2000)
	b.ResetTimer()
	for start := e.Fired(); e.Fired()-start < int64(b.N); {
		e.Step()
	}
	b.ReportMetric(float64(e.Pending()), "pending")
}
