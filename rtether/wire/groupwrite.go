package wire

import (
	"fmt"
	"io"
	"runtime"
	"sync"
)

// MaxQueued bounds the frame bytes a GroupWriter queues behind its write
// in progress. A single frame larger than that is still queued, alone.
const MaxQueued = 64 << 10

// GroupWriter writes the frames of one connection by group flush, for
// the many goroutines that send on it: the daemon's request handlers
// and the client's callers. A sender that finds no write in progress
// becomes the leader: it yields once (runtime.Gosched), so goroutines
// already runnable — handlers finishing other frames of the same read,
// callers woken by the same reply burst — can queue their frames, then
// writes everything queued in one Write, and repeats until the queue is
// empty. A sender that finds a write in progress queues its frame and
// returns. Frames queued but not yet written stay under MaxQueued
// bytes: a frame that would pass it waits for the write in progress, so
// a peer that does not read stalls its senders instead of growing the
// queue.
//
// Two buffers, the queue and the one last written, alternate, so a
// write allocates nothing. The first failed write ends the writer:
// what is queued is dropped, and every later Queue returns its error.
type GroupWriter struct {
	w io.Writer

	mu      sync.Mutex
	room    sync.Cond // broadcast after every write: the queue was taken
	writing bool      // a leader holds the write side
	err     error     // the failed write's error
	queue   []byte    // frames waiting for the next write
	spare   []byte    // the buffer of the last write, reused as the next queue
}

// NewGroupWriter returns a GroupWriter writing to w.
func NewGroupWriter(w io.Writer) *GroupWriter {
	g := &GroupWriter{w: w}
	g.room.L = &g.mu
	return g
}

// Queue appends the frame enc encodes to the queue and writes it,
// unless a write is in progress that will take it. A frame whose
// payload passes MaxFramePayload, which the peer's ReadFrame would
// refuse, is taken back out: Queue returns ErrFrameTooLarge (wrapped)
// and the writer stays usable. Any other error is a failed write's, this
// sender's or an earlier one's; the caller then closes the connection.
func (g *GroupWriter) Queue(enc func(dst []byte) []byte) error {
	g.mu.Lock()
	for {
		if g.err != nil {
			err := g.err
			g.mu.Unlock()
			return err
		}
		prev, n := g.queue, len(g.queue)
		g.queue = enc(g.queue)
		if size := len(g.queue) - n - FrameHeaderLen; size > MaxFramePayload {
			g.queue = prev // the frames queued before, not the oversized buffer
			g.mu.Unlock()
			return fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, size)
		}
		if !g.writing || n == 0 || len(g.queue) <= MaxQueued {
			break
		}
		g.queue = g.queue[:n]
		g.room.Wait()
	}
	if g.writing {
		g.mu.Unlock()
		return nil
	}
	g.writing = true
	g.mu.Unlock()
	runtime.Gosched()
	g.mu.Lock()
	for len(g.queue) > 0 && g.err == nil {
		out := g.queue
		g.queue = g.spare[:0]
		g.mu.Unlock()
		_, err := g.w.Write(out)
		g.mu.Lock()
		g.spare = out
		g.err = err
		g.room.Broadcast()
	}
	err := g.err
	if err != nil {
		g.queue, g.spare = nil, nil
	}
	g.writing = false
	g.mu.Unlock()
	return err
}
