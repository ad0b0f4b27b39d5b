package client

import (
	"context"
	"errors"
	"net"
	"os"
	"testing"
	"time"

	"repro/rtether/wire"
)

// outcome is what one binCall returned.
type outcome struct {
	f   wire.Frame
	err error
}

// pipelinedCalls starts n release calls, for channel IDs 1..n, on a
// client connected to one end of a pipe whose other end is not read
// yet, so the first write is held and the others queue behind it. It
// returns once all n are registered. Each call's outcome arrives on its
// own channel.
func pipelinedCalls(t *testing.T, cc net.Conn, n int) []chan outcome {
	t.Helper()
	c := New("http://unused", WithTransport(TransportBinary), WithBinaryAddr("unused"))
	c.bin = newBinConn(cc)
	out := make([]chan outcome, n)
	for i := range out {
		out[i] = make(chan outcome, 1)
		go func(i int) {
			f, err := c.binCall(context.Background(), wire.MsgChannel, func(dst []byte, reqID uint32) []byte {
				return wire.AppendRelease(dst, reqID, uint32(i+1))
			})
			out[i] <- outcome{f, err}
		}(i)
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		c.bin.mu.Lock()
		registered := len(c.bin.pending)
		c.bin.mu.Unlock()
		if registered == n {
			return out
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d calls registered", registered, n)
		}
	}
}

// TestBinaryGroupFlush queues eight calls on a connection whose peer
// reads nothing until all are registered: once it echoes (release(x) is
// answered with channel x), every caller gets the reply to its own
// request.
func TestBinaryGroupFlush(t *testing.T) {
	cc, sc := net.Pipe()
	defer sc.Close()
	const n = 8
	out := pipelinedCalls(t, cc, n)
	go func() {
		var buf, rep []byte
		for {
			f, nbuf, err := wire.ReadFrame(sc, buf)
			buf = nbuf
			if err != nil {
				return
			}
			id, _ := wire.DecodeRelease(f.Payload)
			rep = wire.AppendChannelReply(rep[:0], f.ReqID, wire.ChannelReply{ID: id})
			if _, err := sc.Write(rep); err != nil {
				return
			}
		}
	}()
	for i, ch := range out {
		o := <-ch
		if o.err != nil {
			t.Fatalf("call %d: %v", i, o.err)
		}
		if r, err := wire.DecodeChannelReply(o.f.Payload); err != nil || r.ID != uint32(i+1) {
			t.Fatalf("call %d got reply %+v (%v), want channel %d", i, r, err, i+1)
		}
	}
}

// TestBinaryFailedWriteFailsQueued fails the held write of a connection
// with eight calls registered (a write deadline passes while the peer
// reads nothing): every call, the queued ones included, returns the
// write error, and none hangs.
func TestBinaryFailedWriteFailsQueued(t *testing.T) {
	cc, sc := net.Pipe()
	defer sc.Close()
	const n = 8
	out := pipelinedCalls(t, cc, n)
	_ = cc.SetWriteDeadline(time.Now())
	for i, ch := range out {
		select {
		case o := <-ch:
			if !errors.Is(o.err, os.ErrDeadlineExceeded) {
				t.Fatalf("call %d returned %v, want the write error", i, o.err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("call %d still waiting after the write failed", i)
		}
	}
}
