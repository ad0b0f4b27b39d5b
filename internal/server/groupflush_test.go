package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/rtether"
	"repro/rtether/client"
	"repro/rtether/wire"
)

// awaitCount waits until load returns at least n.
func awaitCount(t *testing.T, load func() int64, n int64) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); load() < n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("count %d, want at least %d", load(), n)
		}
	}
}

// TestBinaryGroupFlush holds a connection's first reply write (the peer
// is not reading yet) and queues seven more replies meanwhile: each of
// those sends returns at once, the peer then reads every reply once,
// under its own request ID, and rtether_binary_writes_total counts two
// writes: the held one and the one that took the other seven.
func TestBinaryGroupFlush(t *testing.T) {
	s := newStarServer(t, 1)
	peer, pc := net.Pipe()
	defer peer.Close()
	bc := newBinConn(s, pc)
	reply := func(id uint32) func([]byte) []byte {
		return func(dst []byte) []byte {
			return wire.AppendError(dst, id, &wire.Error{Code: "c", Message: fmt.Sprint(id)})
		}
	}
	writes := s.metrics.binWrites.Load
	leader := make(chan struct{})
	go func() { defer close(leader); bc.send(1, reply(1)) }()
	awaitCount(t, writes, 1)
	const n = 8
	queued := make(chan struct{})
	go func() {
		defer close(queued)
		for id := uint32(2); id <= n; id++ {
			bc.send(id, reply(id))
		}
	}()
	select {
	case <-queued:
	case <-time.After(5 * time.Second):
		t.Fatal("a send behind a write in progress waited for it instead of queueing")
	}
	var buf []byte
	for want := uint32(1); want <= n; want++ {
		var f wire.Frame
		var err error
		if f, buf, err = wire.ReadFrame(peer, buf); err != nil {
			t.Fatalf("reading reply %d: %v", want, err)
		}
		we, err := wire.DecodeError(f.Payload)
		if err != nil || f.ReqID != want || we.Message != fmt.Sprint(want) {
			t.Fatalf("reply %d: ID %d, payload %+v (%v)", want, f.ReqID, we, err)
		}
	}
	<-leader
	if got := writes(); got != 2 {
		t.Fatalf("%d replies left in %d writes, want 2", n, got)
	}
}

// TestBinaryFailedWriteEndsConn fails a connection's first reply write
// (a write deadline passes while the peer pipelines requests and reads
// nothing): serveBinaryConn must end on the write error alone, and
// leave no goroutine behind.
func TestBinaryFailedWriteEndsConn(t *testing.T) {
	s := newStarServer(t, 2)
	base := runtime.NumGoroutine()
	peer, pc := net.Pipe()
	defer peer.Close()
	done := make(chan struct{})
	go func() { defer close(done); s.serveBinaryConn(pc) }()
	wrote := make(chan struct{})
	go func() {
		defer close(wrote)
		for i := uint32(1); i <= 64; i++ {
			if _, err := peer.Write(wire.AppendStats(nil, i)); err != nil {
				return
			}
		}
	}()
	awaitCount(t, s.metrics.binWrites.Load, 1)
	_ = pc.SetWriteDeadline(time.Now())
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("serveBinaryConn still running after its reply write failed")
	}
	<-wrote
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines left behind by the failed connection", runtime.NumGoroutine()-base)
		}
	}
}

// TestBinaryOversizedRequestKeepsConnection sends an establishAll whose
// frame payload passes wire.MaxFramePayload (33 000 specs of 32 bytes)
// while an establish on the same connection waits in the coalescer's
// window. The client refuses the oversized frame itself, with the same
// bad_request code the JSON transport answers: the daemon never reads
// it, so it does not drop the connection, and the waiting establish
// completes on it.
func TestBinaryOversizedRequestKeepsConnection(t *testing.T) {
	rtnet := rtether.New()
	for i := 1; i <= 2; i++ {
		rtnet.MustAddNode(rtether.NodeID(i))
	}
	s := New(Config{Network: rtnet, CoalesceWindow: 200 * time.Millisecond})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan struct{})
	go func() { defer close(served); _ = s.ServeBinary(ln) }()
	t.Cleanup(func() { s.Close(); <-served; _ = rtnet.Close() })
	cl := client.New("http://127.0.0.1:0", client.WithTransport(client.TransportBinary), client.WithBinaryAddr(ln.Addr().String()))
	ctx := context.Background()
	if _, err := cl.Stats(ctx); err != nil {
		t.Fatalf("stats: %v", err)
	}
	conns := func() []net.Conn {
		s.binMu.Lock()
		defer s.binMu.Unlock()
		var cs []net.Conn
		for c := range s.binConns {
			cs = append(cs, c)
		}
		return cs
	}
	before := conns()

	held := make(chan error, 1)
	go func() {
		_, err := cl.Establish(ctx, rtether.ChannelSpec{Src: 1, Dst: 2, C: 1, P: 100, D: 40})
		held <- err
	}()
	awaitCount(t, s.coal.establishes.Load, 1)
	specs := make([]rtether.ChannelSpec, 33000)
	for i := range specs {
		specs[i] = rtether.ChannelSpec{Src: 1, Dst: 2, C: 1, P: 1000, D: 400}
	}
	_, err = cl.EstablishAll(ctx, specs)
	var we *wire.Error
	if !errors.As(err, &we) || we.Code != wire.CodeBadRequest {
		t.Fatalf("oversized establishAll = %v, want a %s *wire.Error", err, wire.CodeBadRequest)
	}
	if err := <-held; err != nil {
		t.Fatalf("establish beside the oversized request: %v", err)
	}
	if _, err := cl.Stats(ctx); err != nil {
		t.Fatalf("stats after the oversized request: %v", err)
	}
	if after := conns(); len(before) != 1 || !slices.Equal(after, before) {
		t.Fatalf("binary connections %v before, %v after: the connection did not stay up", before, after)
	}
}

// TestBinaryOversizedReplyReleasesBatch is an atomic establishAll of
// 27 600 specs on a 2-switch line: its request fits in a frame (32 bytes
// a spec), but its reply would not (38 bytes a channel: three hop
// budgets). The daemon refuses the batch with bad_request and releases
// its channels in one decision, so the network holds none of them; an
// establish waiting in the coalescer's window on the same connection
// completes on it, and the connection stays up.
func TestBinaryOversizedReplyReleasesBatch(t *testing.T) {
	top := rtether.NewTopology()
	for _, err := range []error{top.AddSwitch(0), top.AddSwitch(1), top.Trunk(0, 1), top.Attach(1, 0), top.Attach(2, 1)} {
		if err != nil {
			t.Fatal(err)
		}
	}
	rtnet := rtether.New(rtether.WithTopology(top), rtether.WithHDPS(rtether.HSDPS()))
	s := New(Config{Network: rtnet, CoalesceWindow: 200 * time.Millisecond})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan struct{})
	go func() { defer close(served); _ = s.ServeBinary(ln) }()
	t.Cleanup(func() { s.Close(); <-served; _ = rtnet.Close() })
	cl := client.New("http://127.0.0.1:0", client.WithTransport(client.TransportBinary), client.WithBinaryAddr(ln.Addr().String()))
	ctx := context.Background()
	if _, err := cl.Stats(ctx); err != nil {
		t.Fatalf("stats: %v", err)
	}
	conns := func() []net.Conn {
		s.binMu.Lock()
		defer s.binMu.Unlock()
		var cs []net.Conn
		for c := range s.binConns {
			cs = append(cs, c)
		}
		return cs
	}
	before := conns()
	reparts := rtnet.AdmissionStats().Repartitions

	type verdict struct {
		ch  client.Channel
		err error
	}
	held := make(chan verdict, 1)
	go func() {
		ch, err := cl.Establish(ctx, rtether.ChannelSpec{Src: 1, Dst: 2, C: 1, P: 100, D: 60})
		held <- verdict{ch, err}
	}()
	awaitCount(t, s.coal.establishes.Load, 1)
	specs := make([]rtether.ChannelSpec, 27600)
	for i := range specs {
		specs[i] = rtether.ChannelSpec{Src: 1, Dst: 2, C: 1, P: 100000, D: 90000}
	}
	_, err = cl.EstablishAll(ctx, specs)
	var we *wire.Error
	if !errors.As(err, &we) || we.Code != wire.CodeBadRequest {
		t.Fatalf("establishAll with an oversized reply = %v, want a %s *wire.Error", err, wire.CodeBadRequest)
	}
	v := <-held
	if v.err != nil {
		t.Fatalf("establish beside the oversized reply: %v", v.err)
	}
	if got, want := rtnet.Channels(), []rtether.ChannelID{v.ch.ID}; !slices.Equal(got, want) {
		t.Fatalf("channels after the refused batch: %d of them, want only the establish's %v", len(got), want)
	}
	// The batch's admission, its release and the establish's flight.
	if got := rtnet.AdmissionStats().Repartitions - reparts; got != 3 {
		t.Fatalf("%d repartitions, want 3: the batch must be released in one decision", got)
	}
	if after := conns(); len(before) != 1 || !slices.Equal(after, before) {
		t.Fatalf("binary connections %v before, %v after: the connection did not stay up", before, after)
	}
}
