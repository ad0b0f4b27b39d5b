package client_test

import (
	"context"
	"errors"
	"io"
	"net"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/server"
	"repro/rtether"
	"repro/rtether/client"
	"repro/rtether/wire"
)

// boot starts a daemon over a 4-node star and returns its client.
func boot(t *testing.T) (*client.Client, *server.Server) {
	t.Helper()
	net := rtether.New()
	for i := 1; i <= 4; i++ {
		net.MustAddNode(rtether.NodeID(i))
	}
	srv := server.New(server.Config{Network: net})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close(); _ = net.Close() })
	return client.New(ts.URL), srv
}

func TestContextCancellation(t *testing.T) {
	cl, _ := boot(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := cl.Establish(ctx, rtether.ChannelSpec{Src: 1, Dst: 2, C: 1, P: 100, D: 40}); !errors.Is(err, context.Canceled) {
		t.Errorf("Establish with canceled context = %v", err)
	}
	if _, err := cl.Stats(ctx); !errors.Is(err, context.Canceled) {
		t.Errorf("Stats with canceled context = %v", err)
	}
}

func TestClosedDaemonMapsToErrClosed(t *testing.T) {
	cl, srv := boot(t)
	srv.Close()
	_, err := cl.Establish(context.Background(), rtether.ChannelSpec{Src: 1, Dst: 2, C: 1, P: 100, D: 40})
	if !errors.Is(err, rtether.ErrClosed) {
		t.Errorf("establish against closed daemon = %v, want ErrClosed", err)
	}
}

func TestWatchCloseUnblocksNext(t *testing.T) {
	cl, _ := boot(t)
	w, err := cl.Watch(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := w.Next()
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	_ = w.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Error("Next returned an event after Close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Next did not unblock after Close")
	}
}

// TestWatchStreamsAcrossClients proves one client's operations are
// visible on another client's watch stream (the multi-client fan-out
// the daemon exists for).
func TestWatchStreamsAcrossClients(t *testing.T) {
	cl1, _ := boot(t)
	cl2 := cl1 // same daemon; a second Client value would behave identically
	ctx := context.Background()
	w, err := cl2.Watch(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	ch, err := cl1.Establish(ctx, rtether.ChannelSpec{Src: 1, Dst: 2, C: 1, P: 100, D: 40})
	if err != nil {
		t.Fatal(err)
	}
	ev, err := w.Next()
	if err != nil {
		t.Fatal(err)
	}
	if ev.Type != wire.EventAdmit || ev.ID != uint32(ch.ID) {
		t.Errorf("watch saw %+v, want admit of %d", ev, ch.ID)
	}
	if errors.Is(err, io.EOF) {
		t.Error("stream ended unexpectedly")
	}
}

// TestBinaryRedialsAfterDrop serves each binary connection exactly one
// reply and then drops it, the way a restarting daemon does. The client
// keeps one connection: every later call must notice the dead one,
// redial and succeed — including a call issued before the client saw
// the drop, which an idempotent op retries on the fresh connection.
func TestBinaryRedialsAfterDrop(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var dials atomic.Int64
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			dials.Add(1)
			f, _, err := wire.ReadFrame(conn, nil)
			if err == nil {
				_, _ = conn.Write(wire.AppendStatsReply(nil, f.ReqID, wire.StatsReply{Server: wire.ServerStats{Channels: 7}}))
			}
			conn.Close()
		}
	}()
	cl := client.New("127.0.0.1:0", client.WithTransport(client.TransportBinary),
		client.WithBinaryAddr(ln.Addr().String()), client.WithRetry(3, time.Millisecond))
	defer cl.CloseIdleConnections()
	const calls = 200
	for i := 0; i < calls; i++ {
		st, err := cl.Stats(context.Background())
		if err != nil {
			t.Fatalf("call %d after %d dropped connections: %v", i, i, err)
		}
		if st.Server.Channels != 7 {
			t.Fatalf("call %d: stats = %+v", i, st)
		}
	}
	if got := dials.Load(); got < calls {
		t.Errorf("%d calls over one-reply connections dialed %d times, want >= %d", calls, got, calls)
	}
}
