package wire

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// gateWriter holds its first Write until release is closed, then fails
// it with fail when that is set; later writes succeed. Every write is
// kept as it was made.
type gateWriter struct {
	fail    error
	entered chan struct{} // closed when the first Write arrives
	release chan struct{}
	mu      sync.Mutex
	writes  [][]byte
}

func newGateWriter(fail error) *gateWriter {
	return &gateWriter{fail: fail, entered: make(chan struct{}), release: make(chan struct{})}
}

func (g *gateWriter) Write(p []byte) (int, error) {
	g.mu.Lock()
	g.writes = append(g.writes, append([]byte(nil), p...))
	first := len(g.writes) == 1
	g.mu.Unlock()
	if first {
		close(g.entered)
		<-g.release
		if g.fail != nil {
			return 0, g.fail
		}
	}
	return len(p), nil
}

// frameIDs cuts a written byte stream into frames and returns their
// request IDs.
func frameIDs(t *testing.T, b []byte) []uint32 {
	t.Helper()
	var ids []uint32
	for r := bytes.NewReader(b); r.Len() > 0; {
		f, _, err := ReadFrame(r, nil)
		if err != nil {
			t.Fatalf("written bytes do not cut into frames: %v", err)
		}
		ids = append(ids, f.ReqID)
	}
	return ids
}

// sized encodes a stats frame for id carrying a payload of n bytes.
func sized(id uint32, n int) func([]byte) []byte {
	return func(dst []byte) []byte {
		dst, start := beginFrame(dst, MsgStats, id)
		return endFrame(append(dst, make([]byte, n)...), start)
	}
}

// heldLeader starts a sender of frame 1 on g and returns once its write
// is held by gate; the returned channel yields what its Queue returned.
func heldLeader(g *GroupWriter, gate *gateWriter) chan error {
	leader := make(chan error, 1)
	go func() { leader <- g.Queue(sized(1, 0)) }()
	<-gate.entered
	return leader
}

// TestGroupWriterFlush holds the first write and queues seven more
// frames meanwhile: each of those Queue calls returns at once, and the
// seven leave together, in order, in exactly one following write.
func TestGroupWriterFlush(t *testing.T) {
	gate := newGateWriter(nil)
	g := NewGroupWriter(gate)
	leader := heldLeader(g, gate)
	const n = 8
	queued := make(chan error, 1)
	go func() {
		for id := uint32(2); id <= n; id++ {
			if err := g.Queue(sized(id, 0)); err != nil {
				queued <- err
				return
			}
		}
		queued <- nil
	}()
	select {
	case err := <-queued:
		if err != nil {
			t.Fatalf("Queue behind a held write: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a Queue behind a write in progress waited for it instead of queueing")
	}
	close(gate.release)
	if err := <-leader; err != nil {
		t.Fatalf("leader: %v", err)
	}
	if len(gate.writes) != 2 {
		t.Fatalf("%d frames left in %d writes, want 2 (the held one and one after it)", n, len(gate.writes))
	}
	if got, want := fmt.Sprint(frameIDs(t, gate.writes[1])), fmt.Sprint([]uint32{2, 3, 4, 5, 6, 7, 8}); got != want {
		t.Fatalf("the write after the held one carried frames %s, want %s", got, want)
	}
}

// TestGroupWriterFailedWrite fails the held first write with seven
// frames queued behind it: the leader gets the error, the queued
// frames are never written, and every later Queue returns the error.
func TestGroupWriterFailedWrite(t *testing.T) {
	refused := errors.New("write refused")
	gate := newGateWriter(refused)
	g := NewGroupWriter(gate)
	leader := heldLeader(g, gate)
	for id := uint32(2); id <= 8; id++ {
		if err := g.Queue(sized(id, 0)); err != nil {
			t.Fatalf("Queue behind a held write: %v", err)
		}
	}
	close(gate.release)
	if err := <-leader; err != refused {
		t.Fatalf("leader returned %v, want the write error", err)
	}
	if err := g.Queue(sized(9, 0)); err != refused {
		t.Fatalf("Queue after a failed write returned %v, want the write error", err)
	}
	if len(gate.writes) != 1 {
		t.Fatalf("%d writes after the first failed, want none", len(gate.writes)-1)
	}
}

// TestGroupWriterQueueBounded holds the first write while a sender
// queues 20 frames of 8 KiB: the sender stops once MaxQueued bytes are
// queued and waits, and after the release no write carries more than
// MaxQueued bytes, and every frame leaves once, in order.
func TestGroupWriterQueueBounded(t *testing.T) {
	gate := newGateWriter(nil)
	g := NewGroupWriter(gate)
	leader := heldLeader(g, gate)
	const n, size = 20, 8 << 10
	queued := make(chan struct{})
	go func() {
		defer close(queued)
		for id := uint32(2); id <= n+1; id++ {
			_ = g.Queue(sized(id, size))
		}
	}()
	for full := false; !full; time.Sleep(time.Millisecond) {
		g.mu.Lock()
		full = len(g.queue)+FrameHeaderLen+size > MaxQueued
		g.mu.Unlock()
	}
	time.Sleep(20 * time.Millisecond)
	select {
	case <-queued:
		t.Fatalf("%d KiB queued behind a held write, want at most %d KiB", n*size>>10, MaxQueued>>10)
	default:
	}
	close(gate.release)
	<-queued
	if err := <-leader; err != nil {
		t.Fatalf("leader: %v", err)
	}
	var ids []uint32
	for i, w := range gate.writes {
		if len(w) > MaxQueued {
			t.Fatalf("write %d carried %d bytes, want at most %d", i, len(w), MaxQueued)
		}
		ids = append(ids, frameIDs(t, w)...)
	}
	for i, id := range ids {
		if id != uint32(i+1) {
			t.Fatalf("frames left as %v, want 1..%d in order", ids, n+1)
		}
	}
	if len(ids) != n+1 {
		t.Fatalf("%d frames written, want %d", len(ids), n+1)
	}
}

// TestGroupWriterRefusesOversizedFrame queues, behind a held write, a
// frame, then one whose payload passes MaxFramePayload, then another:
// the oversized one is refused at once with ErrFrameTooLarge and never
// written, the frames around it leave together in order, and the writer
// stays usable, taking a frame of exactly MaxFramePayload.
func TestGroupWriterRefusesOversizedFrame(t *testing.T) {
	gate := newGateWriter(nil)
	g := NewGroupWriter(gate)
	leader := heldLeader(g, gate)
	if err := g.Queue(sized(2, 100)); err != nil {
		t.Fatalf("Queue behind a held write: %v", err)
	}
	if err := g.Queue(sized(3, MaxFramePayload+1)); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized Queue returned %v, want ErrFrameTooLarge", err)
	}
	if err := g.Queue(sized(4, 0)); err != nil {
		t.Fatalf("Queue after the refused frame: %v", err)
	}
	close(gate.release)
	if err := <-leader; err != nil {
		t.Fatalf("leader: %v", err)
	}
	if err := g.Queue(sized(5, MaxFramePayload)); err != nil {
		t.Fatalf("Queue of a frame at the limit: %v", err)
	}
	var ids []uint32
	for _, w := range gate.writes {
		ids = append(ids, frameIDs(t, w)...)
	}
	if got, want := fmt.Sprint(ids), fmt.Sprint([]uint32{1, 2, 4, 5}); got != want {
		t.Fatalf("frames written %s, want %s", got, want)
	}
}
