package server_test

import (
	"context"
	"errors"
	"net"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/server"
	"repro/rtether"
	"repro/rtether/client"
	"repro/rtether/wire"
)

// newBinaryTestServer boots a Server with both listeners and returns a
// binary-transport client for it.
func newBinaryTestServer(t *testing.T, rtnet *rtether.Network) (*client.Client, *server.Server) {
	t.Helper()
	srv := server.New(server.Config{Network: rtnet})
	ts := httptest.NewServer(srv.Handler())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.ServeBinary(ln)
	}()
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
		<-done
		_ = rtnet.Close()
	})
	cl := client.New(ts.URL, client.WithTransport(client.TransportBinary), client.WithBinaryAddr(ln.Addr().String()))
	t.Cleanup(cl.CloseIdleConnections)
	return cl, srv
}

// TestBinaryEstablishReleaseRoundTrip drives the full establish →
// stats → release lifecycle over the binary transport.
func TestBinaryEstablishReleaseRoundTrip(t *testing.T) {
	cl, _ := newBinaryTestServer(t, starNet(4))
	ctx := context.Background()

	ch, err := cl.Establish(ctx, rtether.ChannelSpec{Src: 1, Dst: 2, C: 1, P: 100, D: 40})
	if err != nil {
		t.Fatalf("establish: %v", err)
	}
	if ch.ID == 0 || len(ch.Budgets) != 2 || ch.Budgets[0]+ch.Budgets[1] != 40 {
		t.Fatalf("bad reply: %+v", ch)
	}

	st, err := cl.Stats(ctx)
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if st.Admission.Accepted != 1 || st.Server.Channels != 1 {
		t.Fatalf("stats = %+v", st)
	}

	if err := cl.Release(ctx, ch.ID); err != nil {
		t.Fatalf("release: %v", err)
	}
	if err := cl.Release(ctx, ch.ID); !errors.Is(err, client.ErrUnknownChannel) {
		t.Fatalf("double release = %v, want ErrUnknownChannel", err)
	}
}

// TestBinaryTypedErrorFidelity pins that a feasibility rejection over
// the binary transport reconstructs the exact same typed
// *rtether.AdmissionError as the JSON transport (and as the in-process
// API): errors.Is/errors.As work identically.
func TestBinaryTypedErrorFidelity(t *testing.T) {
	rtnet := starNet(4)
	srv := server.New(server.Config{Network: rtnet})
	ts := httptest.NewServer(srv.Handler())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.ServeBinary(ln) }()
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
		_ = rtnet.Close()
	})
	binCl := client.New(ts.URL, client.WithTransport(client.TransportBinary), client.WithBinaryAddr(ln.Addr().String()))
	jsonCl := client.New(ts.URL)
	t.Cleanup(binCl.CloseIdleConnections)
	t.Cleanup(jsonCl.CloseIdleConnections)
	ctx := context.Background()

	// Saturate node 1's uplink, then ask for one channel too many on each
	// transport: the two rejections must be identical, field for field.
	fill := rtether.ChannelSpec{Src: 1, Dst: 2, C: 1, P: 2, D: 2}
	if _, err := binCl.Establish(ctx, fill); err != nil {
		t.Fatalf("fill: %v", err)
	}
	over := rtether.ChannelSpec{Src: 1, Dst: 3, C: 1, P: 2, D: 2}

	_, binErr := binCl.Establish(ctx, over)
	_, jsonErr := jsonCl.Establish(ctx, over)
	if binErr == nil || jsonErr == nil {
		t.Fatalf("overload accepted: bin=%v json=%v", binErr, jsonErr)
	}
	var binAE, jsonAE *rtether.AdmissionError
	if !errors.As(binErr, &binAE) {
		t.Fatalf("binary rejection is not a *rtether.AdmissionError: %v", binErr)
	}
	if !errors.As(jsonErr, &jsonAE) {
		t.Fatalf("json rejection is not a *rtether.AdmissionError: %v", jsonErr)
	}
	if *binAE != *jsonAE {
		t.Errorf("transports disagree on the rejection:\n bin  %+v\n json %+v", binAE, jsonAE)
	}
	if binErr.Error() != jsonErr.Error() {
		t.Errorf("rejection strings diverge:\n bin  %s\n json %s", binErr, jsonErr)
	}

	// Invalid spec and unknown channel map to the same typed errors too.
	if _, err := binCl.Establish(ctx, rtether.ChannelSpec{Src: 1, Dst: 1, C: 1, P: 10, D: 5}); err == nil {
		t.Error("self-loop accepted over binary")
	}
	if err := binCl.Release(ctx, 9999); !errors.Is(err, client.ErrUnknownChannel) {
		t.Errorf("unknown release = %v, want ErrUnknownChannel", err)
	}
}

// TestBinaryEstablishAllAndMulticast covers the batch and multicast
// frames end to end.
func TestBinaryEstablishAllAndMulticast(t *testing.T) {
	cl, _ := newBinaryTestServer(t, starNet(6))
	ctx := context.Background()

	specs := []rtether.ChannelSpec{
		{Src: 1, Dst: 2, C: 1, P: 100, D: 40},
		{Src: 2, Dst: 3, C: 1, P: 100, D: 40},
		{Src: 3, Dst: 4, C: 1, P: 100, D: 40},
	}
	chs, err := cl.EstablishAll(ctx, specs)
	if err != nil {
		t.Fatalf("establishAll: %v", err)
	}
	if len(chs) != len(specs) {
		t.Fatalf("got %d channels for %d specs", len(chs), len(specs))
	}

	mch, err := cl.EstablishMulticast(ctx, rtether.MulticastSpec{Src: 5, Sinks: []rtether.NodeID{1, 2, 3}, C: 1, P: 100, D: 40})
	if err != nil {
		t.Fatalf("multicast: %v", err)
	}
	if mch.ID == 0 {
		t.Fatalf("bad multicast reply: %+v", mch)
	}

	// Reconfigure over binary: release + re-establish semantics.
	rch, err := cl.Reconfigure(ctx, chs[0].ID, 0, 0, 60)
	if err != nil {
		t.Fatalf("reconfigure: %v", err)
	}
	if rch.GuaranteedDelay != 60 {
		t.Errorf("reconfigure delay = %d, want 60", rch.GuaranteedDelay)
	}
}

// TestBinaryPipelinedConcurrency fans 32 concurrent establishes through
// the binary transport: pipelining must present the coalescer with real
// concurrency (merged flights), and every caller still gets its own
// verdict.
func TestBinaryPipelinedConcurrency(t *testing.T) {
	cl, _ := newBinaryTestServer(t, starNet(66))
	ctx := context.Background()

	const n = 32
	var wg sync.WaitGroup
	errs := make([]error, n)
	ids := make([]rtether.ChannelID, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ch, err := cl.Establish(ctx, rtether.ChannelSpec{
				Src: rtether.NodeID(1 + i), Dst: rtether.NodeID(33 + i), C: 1, P: 100, D: 40,
			})
			errs[i], ids[i] = err, ch.ID
		}(i)
	}
	wg.Wait()
	seen := map[rtether.ChannelID]bool{}
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("establish %d: %v", i, errs[i])
		}
		if seen[ids[i]] {
			t.Fatalf("duplicate channel ID %d", ids[i])
		}
		seen[ids[i]] = true
	}
	st, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Admission.Accepted != n {
		t.Fatalf("accepted = %d, want %d", st.Admission.Accepted, n)
	}
	if st.Server.Flights > st.Server.Establishes {
		t.Fatalf("flights %d > establishes %d", st.Server.Flights, st.Server.Establishes)
	}
}

// TestBinaryVerdictsReachWatchFeed proves the two listeners are one
// service: verdicts decided over the binary transport appear on the
// HTTP watch stream.
func TestBinaryVerdictsReachWatchFeed(t *testing.T) {
	cl, _ := newBinaryTestServer(t, starNet(4))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	w, err := cl.Watch(ctx) // watch always travels over HTTP
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	ch, err := cl.Establish(ctx, rtether.ChannelSpec{Src: 1, Dst: 2, C: 1, P: 100, D: 40})
	if err != nil {
		t.Fatal(err)
	}
	ev, err := w.Next()
	if err != nil {
		t.Fatal(err)
	}
	if ev.Type != wire.EventAdmit || ev.ID != uint32(ch.ID) {
		t.Fatalf("watch event = %+v, want admit of %d", ev, ch.ID)
	}
}

// TestBinaryServerCloseFailsCalls pins shutdown behavior: after Close,
// binary calls fail with rtether.ErrClosed semantics (via the closed
// coalescer) or a transport error — never hang.
func TestBinaryServerCloseFailsCalls(t *testing.T) {
	rtnet := starNet(4)
	srv := server.New(server.Config{Network: rtnet})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { defer close(done); _ = srv.ServeBinary(ln) }()
	cl := client.New("127.0.0.1:0", client.WithTransport(client.TransportBinary), client.WithBinaryAddr(ln.Addr().String()))
	t.Cleanup(func() { cl.CloseIdleConnections(); _ = rtnet.Close() })

	ctx := context.Background()
	if _, err := cl.Establish(ctx, rtether.ChannelSpec{Src: 1, Dst: 2, C: 1, P: 100, D: 40}); err != nil {
		t.Fatalf("pre-close establish: %v", err)
	}
	srv.Close()
	<-done // ServeBinary returns once Close tears the listener down
	if _, err := cl.Establish(ctx, rtether.ChannelSpec{Src: 1, Dst: 3, C: 1, P: 100, D: 40}); err == nil {
		t.Fatal("establish after Close succeeded")
	}
}

// TestIDsExhaustedTypedOverTheWire fills a star's ID space in process:
// the next establishment is refused with ids_exhausted over JSON and
// over binary, and the client maps it back to rtether.ErrIDsExhausted.
func TestIDsExhaustedTypedOverTheWire(t *testing.T) {
	rtnet := starNet(2)
	spec := rtether.ChannelSpec{Src: 1, Dst: 2, C: 1, P: 1 << 20, D: 1 << 21}
	specs := make([]rtether.ChannelSpec, 0xffff)
	for i := range specs {
		specs[i] = spec
	}
	if _, err := rtnet.EstablishAll(specs); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	t.Cleanup(func() { <-done })
	jsonCl, srv := newTestServer(t, rtnet)
	go func() { defer close(done); _ = srv.ServeBinary(ln) }()
	binCl := client.New("http://127.0.0.1:0", client.WithTransport(client.TransportBinary), client.WithBinaryAddr(ln.Addr().String()))
	t.Cleanup(binCl.CloseIdleConnections)
	for name, cl := range map[string]*client.Client{"json": jsonCl, "binary": binCl} {
		if _, err := cl.Establish(context.Background(), spec); !errors.Is(err, rtether.ErrIDsExhausted) {
			t.Errorf("%s establish with every ID live: %v, want ErrIDsExhausted", name, err)
		}
	}
}
