package sched

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEDFQueueOrdersByDeadline(t *testing.T) {
	var q EDFQueue
	q.Push(30, "c")
	q.Push(10, "a")
	q.Push(20, "b")
	want := []string{"a", "b", "c"}
	for _, w := range want {
		it, ok := q.Pop()
		if !ok || it.Payload.(string) != w {
			t.Fatalf("pop = %v,%v, want %q", it, ok, w)
		}
	}
	if _, ok := q.Pop(); ok {
		t.Error("pop from empty queue returned ok")
	}
}

func TestEDFQueueTiesAreFIFO(t *testing.T) {
	var q EDFQueue
	for i := 0; i < 10; i++ {
		q.Push(5, i)
	}
	for i := 0; i < 10; i++ {
		it, ok := q.Pop()
		if !ok || it.Payload.(int) != i {
			t.Fatalf("tie order broken at %d: got %v", i, it.Payload)
		}
	}
}

func TestEDFQueuePeek(t *testing.T) {
	var q EDFQueue
	if _, ok := q.Peek(); ok {
		t.Error("peek on empty returned ok")
	}
	q.Push(7, "x")
	it, ok := q.Peek()
	if !ok || it.Deadline != 7 || q.Len() != 1 {
		t.Errorf("peek = %v,%v len=%d", it, ok, q.Len())
	}
}

func TestEDFQueueInterleavedPushPop(t *testing.T) {
	var q EDFQueue
	q.Push(10, "late")
	q.Push(5, "early")
	it, _ := q.Pop()
	if it.Payload.(string) != "early" {
		t.Fatal("wrong first pop")
	}
	q.Push(1, "urgent")
	it, _ = q.Pop()
	if it.Payload.(string) != "urgent" {
		t.Fatal("urgent frame not prioritized after interleaved push")
	}
	it, _ = q.Pop()
	if it.Payload.(string) != "late" {
		t.Fatal("remaining frame lost")
	}
}

// TestEDFQueuePopsSorted is the heap-order property test: any push
// sequence pops in nondecreasing deadline order, FIFO within ties.
func TestEDFQueuePopsSorted(t *testing.T) {
	f := func(deadlines []int16) bool {
		var q EDFQueue
		for i, d := range deadlines {
			q.Push(int64(d), i)
		}
		var popped []Item[any]
		for {
			it, ok := q.Pop()
			if !ok {
				break
			}
			popped = append(popped, it)
		}
		if len(popped) != len(deadlines) {
			return false
		}
		for i := 1; i < len(popped); i++ {
			if popped[i].Deadline < popped[i-1].Deadline {
				return false
			}
			if popped[i].Deadline == popped[i-1].Deadline &&
				popped[i].Payload.(int) < popped[i-1].Payload.(int) {
				return false // FIFO tie-break violated
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEDFQueueMatchesSortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 100; trial++ {
		n := rng.Intn(200)
		var q EDFQueue
		ref := make([]int64, n)
		for i := 0; i < n; i++ {
			d := int64(rng.Intn(50))
			ref[i] = d
			q.Push(d, nil)
		}
		sort.Slice(ref, func(i, j int) bool { return ref[i] < ref[j] })
		for i := 0; i < n; i++ {
			it, ok := q.Pop()
			if !ok || it.Deadline != ref[i] {
				t.Fatalf("trial %d pos %d: got %v,%v want %d", trial, i, it, ok, ref[i])
			}
		}
	}
}

func TestFCFSQueueOrder(t *testing.T) {
	q := NewFCFSQueue[any](0)
	for i := 0; i < 100; i++ {
		if !q.Push(i) {
			t.Fatal("unbounded queue rejected a push")
		}
	}
	for i := 0; i < 100; i++ {
		v, ok := q.Pop()
		if !ok || v.(int) != i {
			t.Fatalf("FCFS order broken at %d: %v", i, v)
		}
	}
	if _, ok := q.Pop(); ok {
		t.Error("pop from empty FCFS returned ok")
	}
}

func TestFCFSQueueBoundAndDrops(t *testing.T) {
	q := NewFCFSQueue[any](3)
	for i := 0; i < 5; i++ {
		q.Push(i)
	}
	if q.Len() != 3 || q.Drops() != 2 {
		t.Fatalf("len=%d drops=%d, want 3 and 2", q.Len(), q.Drops())
	}
	v, _ := q.Pop()
	if v.(int) != 0 {
		t.Errorf("head = %v, want oldest (0)", v)
	}
	if !q.Push(99) {
		t.Error("push after pop rejected despite free space")
	}
}

func TestFCFSQueueWrapAround(t *testing.T) {
	q := NewFCFSQueue[any](4)
	// Fill, drain half, refill: exercises the ring wrap.
	for i := 0; i < 4; i++ {
		q.Push(i)
	}
	q.Pop()
	q.Pop()
	q.Push(4)
	q.Push(5)
	want := []int{2, 3, 4, 5}
	for _, w := range want {
		v, ok := q.Pop()
		if !ok || v.(int) != w {
			t.Fatalf("wrap order: got %v, want %d", v, w)
		}
	}
}

func TestFCFSQueuePeek(t *testing.T) {
	q := NewFCFSQueue[any](0)
	if _, ok := q.Peek(); ok {
		t.Error("peek on empty returned ok")
	}
	q.Push("a")
	v, ok := q.Peek()
	if !ok || v.(string) != "a" || q.Len() != 1 {
		t.Error("peek misbehaved")
	}
}

func TestFCFSQueueGrowPreservesOrder(t *testing.T) {
	q := NewFCFSQueue[any](0)
	// Force several grows with interleaved pops so head != 0 at grow time.
	next := 0
	for round := 0; round < 6; round++ {
		for i := 0; i < 10; i++ {
			q.Push(next)
			next++
		}
		q.Pop()
	}
	prev := -1
	for {
		v, ok := q.Pop()
		if !ok {
			break
		}
		if v.(int) <= prev {
			t.Fatalf("order broken: %d after %d", v.(int), prev)
		}
		prev = v.(int)
	}
}

func TestPortRTStrictPriority(t *testing.T) {
	p := NewPort[any](0)
	p.EnqueueNonRT("tcp1")
	p.EnqueueRT(50, 20, "rt-late")
	p.EnqueueNonRT("tcp2")
	p.EnqueueRT(10, 20, "rt-early")

	wantOrder := []struct {
		payload string
		class   Class
	}{
		{"rt-early", ClassRT},
		{"rt-late", ClassRT},
		{"tcp1", ClassNonRT},
		{"tcp2", ClassNonRT},
	}
	for i, w := range wantOrder {
		payload, class, ok := p.Next()
		if !ok || payload.(string) != w.payload || class != w.class {
			t.Fatalf("step %d: got (%v, %v, %v), want %+v", i, payload, class, ok, w)
		}
	}
	if _, _, ok := p.Next(); ok {
		t.Error("Next on idle port returned ok")
	}
	rt, nonRT := p.Sent()
	if rt != 2 || nonRT != 2 {
		t.Errorf("sent = (%d, %d), want (2, 2)", rt, nonRT)
	}
}

func TestPortBusyAndBacklogs(t *testing.T) {
	p := NewPort[any](2)
	if p.Busy() {
		t.Error("new port busy")
	}
	p.EnqueueRT(1, 1, "a")
	p.EnqueueNonRT("b")
	p.EnqueueNonRT("c")
	p.EnqueueNonRT("dropped")
	if !p.Busy() || p.QueuedRT() != 1 || p.QueuedNonRT() != 2 || p.Drops() != 1 {
		t.Errorf("busy=%v rt=%d nonrt=%d drops=%d", p.Busy(), p.QueuedRT(), p.QueuedNonRT(), p.Drops())
	}
}

func TestClassString(t *testing.T) {
	if ClassRT.String() != "rt" || ClassNonRT.String() != "non-rt" {
		t.Error("Class strings changed")
	}
}

func TestDisciplineString(t *testing.T) {
	for d, want := range map[Discipline]string{
		DisciplineEDF: "EDF", DisciplineFIFO: "FIFO", DisciplineDM: "DM",
		Discipline(9): "discipline(?)",
	} {
		if got := d.String(); got != want {
			t.Errorf("Discipline(%d) = %q, want %q", int(d), got, want)
		}
	}
}

func TestPortDisciplineFIFO(t *testing.T) {
	p := NewPortWithDiscipline[any](0, DisciplineFIFO)
	// Arrival order wins regardless of deadlines.
	p.EnqueueRT(50, 50, "first")
	p.EnqueueRT(10, 10, "second")
	p.EnqueueRT(30, 30, "third")
	for _, want := range []string{"first", "second", "third"} {
		got, class, ok := p.Next()
		if !ok || class != ClassRT || got.(string) != want {
			t.Fatalf("FIFO order: got %v, want %q", got, want)
		}
	}
}

func TestPortDisciplineDM(t *testing.T) {
	p := NewPortWithDiscipline[any](0, DisciplineDM)
	// Static priority by relative deadline; absolute deadlines ignored.
	p.EnqueueRT(5, 40, "loose-but-urgent-abs")
	p.EnqueueRT(100, 10, "tight-class")
	p.EnqueueRT(60, 40, "loose-2")
	order := []string{"tight-class", "loose-but-urgent-abs", "loose-2"}
	for _, want := range order {
		got, _, ok := p.Next()
		if !ok || got.(string) != want {
			t.Fatalf("DM order: got %v, want %q", got, want)
		}
	}
}

func TestPortDisciplineEDFDefault(t *testing.T) {
	p := NewPort[any](0)
	p.EnqueueRT(100, 10, "late-abs")
	p.EnqueueRT(5, 40, "early-abs")
	got, _, _ := p.Next()
	if got.(string) != "early-abs" {
		t.Errorf("EDF must order by absolute deadline, got %v", got)
	}
}
