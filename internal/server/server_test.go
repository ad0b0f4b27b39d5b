package server_test

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/server"
	"repro/rtether"
	"repro/rtether/client"
	"repro/rtether/wire"
)

// newTestServer boots a Server over net behind an httptest listener and
// returns a typed client for it.
func newTestServer(t *testing.T, net *rtether.Network, cfg ...func(*server.Config)) (*client.Client, *server.Server) {
	t.Helper()
	sc := server.Config{Network: net}
	for _, f := range cfg {
		f(&sc)
	}
	srv := server.New(sc)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
		_ = net.Close()
	})
	return client.New(ts.URL), srv
}

// starNet builds a star with nodes 1..n.
func starNet(n int) *rtether.Network {
	net := rtether.New()
	for i := 1; i <= n; i++ {
		net.MustAddNode(rtether.NodeID(i))
	}
	return net
}

func TestEstablishReleaseRoundTrip(t *testing.T) {
	cl, _ := newTestServer(t, starNet(4))
	ctx := context.Background()

	ch, err := cl.Establish(ctx, rtether.ChannelSpec{Src: 1, Dst: 2, C: 1, P: 100, D: 40})
	if err != nil {
		t.Fatalf("establish: %v", err)
	}
	if ch.ID == 0 || len(ch.Budgets) != 2 || ch.Budgets[0]+ch.Budgets[1] != 40 {
		t.Fatalf("bad reply: %+v", ch)
	}
	if ch.GuaranteedDelay != 40 {
		t.Errorf("GuaranteedDelay = %d, want 40", ch.GuaranteedDelay)
	}

	infos, err := cl.Channels(ctx)
	if err != nil || len(infos) != 1 || infos[0].ID != uint32(ch.ID) {
		t.Fatalf("channels = %+v, %v", infos, err)
	}
	m, err := cl.Metrics(ctx, ch.ID)
	if err != nil || m.Delivered != 0 {
		t.Fatalf("metrics = %+v, %v", m, err)
	}

	if err := cl.Release(ctx, ch.ID); err != nil {
		t.Fatalf("release: %v", err)
	}
	if err := cl.Release(ctx, ch.ID); !errors.Is(err, client.ErrUnknownChannel) {
		t.Fatalf("double release = %v, want ErrUnknownChannel", err)
	}

	st, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Admission.Accepted != 1 || st.Admission.Released != 1 || st.Server.Establishes != 1 {
		t.Errorf("stats = %+v", st)
	}
}

// TestAdmissionErrorWireRoundTrip proves every *AdmissionError field
// survives the encode/decode round trip: the remote rejection must
// equal the in-process rejection of an identical twin network, field
// for field.
func TestAdmissionErrorWireRoundTrip(t *testing.T) {
	load := func(n *rtether.Network) error {
		// Saturate node 2's downlink (two C=3/D_down=6 tasks fill t=6
		// exactly), so the next channel to node 2 overflows it.
		for _, src := range []rtether.NodeID{1, 4} {
			if _, err := n.EstablishAll([]rtether.ChannelSpec{{Src: src, Dst: 2, C: 3, P: 10, D: 12}}); err != nil {
				return err
			}
		}
		return nil
	}
	overflow := rtether.ChannelSpec{Src: 3, Dst: 2, C: 3, P: 10, D: 12}

	local := starNet(4)
	defer local.Close()
	if err := load(local); err != nil {
		t.Fatal(err)
	}
	_, wantErr := local.EstablishAll([]rtether.ChannelSpec{overflow})
	var want *rtether.AdmissionError
	if !errors.As(wantErr, &want) {
		t.Fatalf("local overflow did not reject with AdmissionError: %v", wantErr)
	}

	remote := starNet(4)
	cl, _ := newTestServer(t, remote)
	if err := load(remote); err != nil {
		t.Fatal(err)
	}
	_, gotErr := cl.Establish(context.Background(), overflow)
	var got *rtether.AdmissionError
	if !errors.As(gotErr, &got) {
		t.Fatalf("remote overflow = %v, want AdmissionError", gotErr)
	}
	if !errors.Is(gotErr, rtether.ErrInfeasible) {
		t.Error("remote AdmissionError does not unwrap to ErrInfeasible")
	}
	if *got != *want {
		t.Fatalf("AdmissionError did not round-trip:\n  remote %+v\n  local  %+v", got, want)
	}
}

// TestCoalescingManyConcurrentClients is the server half of the PR
// acceptance criterion: 1000 concurrent client establishes merge into
// few kernel passes — at most 1/10th the repartition passes sequential
// submission would cost — with every client accepted.
func TestCoalescingManyConcurrentClients(t *testing.T) {
	const n = 1000
	specs := make([]rtether.ChannelSpec, n)
	for i := range specs {
		specs[i] = rtether.ChannelSpec{
			Src: rtether.NodeID(1 + i%10), Dst: rtether.NodeID(11 + i%10),
			C: 1, P: 800, D: int64(200 + i%100),
		}
	}
	// A small coalescing window absorbs the arrival jitter real HTTP
	// transport adds on top of the in-flight merging.
	cl, _ := newTestServer(t, starNet(20), func(c *server.Config) {
		c.CoalesceWindow = 5 * time.Millisecond
	})
	ctx := context.Background()

	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = cl.Establish(ctx, specs[i])
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d rejected: %v", i, err)
		}
	}

	st, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Admission.Accepted != n {
		t.Fatalf("accepted %d, want %d", st.Admission.Accepted, n)
	}
	// Sequential submission costs one repartition pass per request.
	if st.Admission.Repartitions*10 > n {
		t.Fatalf("1000 concurrent establishes cost %d repartition passes, want <= %d (1/10th of sequential)",
			st.Admission.Repartitions, n/10)
	}
	if st.Server.Flights >= st.Server.Establishes/10 {
		t.Errorf("coalescer merged %d establishes into %d flights — expected at least 10x merging",
			st.Server.Establishes, st.Server.Flights)
	}
	t.Logf("merged %d establishes into %d flights (max merged %d), %d repartition passes",
		st.Server.Establishes, st.Server.Flights, st.Server.MaxMerged, st.Admission.Repartitions)
}

// TestConcurrentMixedOps hammers the server with mixed EstablishAll,
// coalesced Establish, Release, Report-style reads and stats from many
// goroutines; under -race this pins the whole server path.
func TestConcurrentMixedOps(t *testing.T) {
	cl, _ := newTestServer(t, starNet(12))
	ctx := context.Background()
	const goroutines = 10
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			src := rtether.NodeID(1 + g%6)
			dst := rtether.NodeID(7 + g%6)
			for i := 0; i < 25; i++ {
				spec := rtether.ChannelSpec{Src: src, Dst: dst, C: 1, P: 500, D: int64(100 + i)}
				var ids []rtether.ChannelID
				if i%2 == 0 {
					ch, err := cl.Establish(ctx, spec)
					if err != nil {
						t.Errorf("g%d establish: %v", g, err)
						continue
					}
					ids = []rtether.ChannelID{ch.ID}
				} else {
					chs, err := cl.EstablishAll(ctx, []rtether.ChannelSpec{spec, {Src: src, Dst: dst, C: 1, P: 600, D: int64(120 + i)}})
					if err != nil {
						t.Errorf("g%d establishAll: %v", g, err)
						continue
					}
					for _, ch := range chs {
						ids = append(ids, ch.ID)
					}
				}
				if _, err := cl.Channels(ctx); err != nil {
					t.Errorf("g%d channels: %v", g, err)
				}
				if _, err := cl.Stats(ctx); err != nil {
					t.Errorf("g%d stats: %v", g, err)
				}
				if _, err := cl.Metrics(ctx, ids[0]); err != nil {
					t.Errorf("g%d metrics: %v", g, err)
				}
				for _, id := range ids {
					if err := cl.Release(ctx, id); err != nil {
						t.Errorf("g%d release: %v", g, err)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	st, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Admission.Accepted != st.Admission.Released {
		t.Errorf("accepted %d != released %d after drain", st.Admission.Accepted, st.Admission.Released)
	}
	if st.Server.Channels != 0 {
		t.Errorf("%d channels left established", st.Server.Channels)
	}
}

// TestWatchFeed subscribes to /v1/watch and checks that admissions,
// rejections (with diagnostics) and releases stream in order with
// increasing sequence numbers.
func TestWatchFeed(t *testing.T) {
	cl, _ := newTestServer(t, starNet(4))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	w, err := cl.Watch(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	ch, err := cl.Establish(ctx, rtether.ChannelSpec{Src: 1, Dst: 2, C: 3, P: 10, D: 12})
	if err != nil {
		t.Fatal(err)
	}
	// Saturate then reject.
	for {
		if _, err = cl.Establish(ctx, rtether.ChannelSpec{Src: 1, Dst: 2, C: 3, P: 10, D: 12}); err != nil {
			break
		}
	}
	if err := cl.Release(ctx, ch.ID); err != nil {
		t.Fatal(err)
	}

	var events []wire.WatchEvent
	deadline := time.After(5 * time.Second)
	for len(events) == 0 || events[len(events)-1].Type != wire.EventRelease {
		type res struct {
			ev  wire.WatchEvent
			err error
		}
		got := make(chan res, 1)
		go func() {
			ev, err := w.Next()
			got <- res{ev, err}
		}()
		select {
		case r := <-got:
			if r.err != nil {
				t.Fatalf("watch ended early: %v (events so far: %+v)", r.err, events)
			}
			events = append(events, r.ev)
		case <-deadline:
			t.Fatalf("timed out; events so far: %+v", events)
		}
	}

	var admits, rejects, releases int
	var lastSeq uint64
	for _, ev := range events {
		if ev.Seq <= lastSeq {
			t.Errorf("sequence not increasing: %d after %d", ev.Seq, lastSeq)
		}
		lastSeq = ev.Seq
		switch ev.Type {
		case wire.EventAdmit:
			admits++
			if ev.Spec == nil || len(ev.Budgets) == 0 || ev.ID == 0 {
				t.Errorf("admit event incomplete: %+v", ev)
			}
		case wire.EventReject:
			rejects++
			if ev.Error == nil || ev.Error.Code != wire.CodeInfeasible || ev.Error.Admission == nil {
				t.Errorf("reject event lacks diagnostics: %+v", ev)
			} else if ev.Error.Admission.Reason == "" || ev.Error.Admission.Link == "" {
				t.Errorf("reject diagnostics incomplete: %+v", ev.Error.Admission)
			}
		case wire.EventRelease:
			releases++
			if ev.ID != uint32(ch.ID) {
				t.Errorf("release names channel %d, want %d", ev.ID, ch.ID)
			}
		}
	}
	if admits == 0 || rejects == 0 || releases != 1 {
		t.Errorf("event mix: %d admits, %d rejects, %d releases", admits, rejects, releases)
	}
}

// TestErrorMapping pins the HTTP status and code for each error class.
func TestErrorMapping(t *testing.T) {
	net := starNet(2)
	srv := server.New(server.Config{Network: net})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close(); _ = net.Close() })

	post := func(path, body string) (int, wire.Envelope) {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var env wire.Envelope
		_ = json.NewDecoder(resp.Body).Decode(&env)
		return resp.StatusCode, env
	}

	if code, env := post("/v1/establish", "{nope"); code != http.StatusBadRequest || env.Err == nil || env.Err.Code != wire.CodeBadRequest {
		t.Errorf("bad JSON → %d %+v", code, env.Err)
	}
	if code, env := post("/v1/establish", `{"spec":{"src":1,"dst":1,"c":1,"p":10,"d":10}}`); code != http.StatusUnprocessableEntity || env.Err.Code != wire.CodeInvalidSpec {
		t.Errorf("self-loop → %d %+v", code, env.Err)
	}
	if code, env := post("/v1/establish", `{"spec":{"src":1,"dst":99,"c":1,"p":10,"d":10}}`); code != http.StatusUnprocessableEntity || env.Err.Code != wire.CodeNoRoute {
		t.Errorf("unknown node → %d %+v", code, env.Err)
	}
	if code, env := post("/v1/release", `{"id":404}`); code != http.StatusNotFound || env.Err.Code != wire.CodeUnknownChannel {
		t.Errorf("unknown channel → %d %+v", code, env.Err)
	}

	// A closed server answers establishes with the closed error.
	srv.Close()
	if code, env := post("/v1/establish", `{"spec":{"src":1,"dst":2,"c":1,"p":10,"d":10}}`); code != http.StatusServiceUnavailable || env.Err.Code != wire.CodeClosed {
		t.Errorf("closed server → %d %+v", code, env.Err)
	}
}

// TestReconfigure exercises the release-and-reestablish path.
func TestReconfigure(t *testing.T) {
	cl, _ := newTestServer(t, starNet(4))
	ctx := context.Background()
	ch, err := cl.Establish(ctx, rtether.ChannelSpec{Src: 1, Dst: 2, C: 1, P: 100, D: 40})
	if err != nil {
		t.Fatal(err)
	}
	nch, err := cl.Reconfigure(ctx, ch.ID, 0, 0, 60)
	if err != nil {
		t.Fatalf("reconfigure: %v", err)
	}
	if nch.Budgets[0]+nch.Budgets[1] != 60 {
		t.Errorf("budgets %v do not sum to the new deadline 60", nch.Budgets)
	}
	if _, err := cl.Reconfigure(ctx, 12345, 0, 0, 50); !errors.Is(err, client.ErrUnknownChannel) {
		t.Errorf("reconfigure unknown = %v", err)
	}
	infos, err := cl.Channels(ctx)
	if err != nil || len(infos) != 1 {
		t.Fatalf("channels after reconfigure = %+v, %v", infos, err)
	}
	if infos[0].Spec.D != 60 {
		t.Errorf("spec after reconfigure = %+v", infos[0].Spec)
	}
}

// TestOversizedBodyRefused posts a 2 MiB body — twice the cap shared
// with the binary transport — and expects the bad_request envelope
// without the server buffering the body: the decoder stops at the cap.
func TestOversizedBodyRefused(t *testing.T) {
	net := starNet(2)
	srv := server.New(server.Config{Network: net})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close(); _ = net.Close() })

	// One never-ending JSON string, streamed so the test itself holds no
	// copy of the body.
	body := io.MultiReader(strings.NewReader(`{"specs":"`), io.LimitReader(zeros{}, 2*wire.MaxFramePayload))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	resp, err := http.Post(ts.URL+"/v1/establishAll", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	runtime.ReadMemStats(&after)
	var env wire.Envelope
	_ = json.NewDecoder(resp.Body).Decode(&env)
	if resp.StatusCode != http.StatusBadRequest || env.Err == nil || env.Err.Code != wire.CodeBadRequest ||
		!strings.Contains(env.Err.Message, "request body too large") {
		t.Fatalf("2 MiB body → %d %+v, want 400 bad_request (request body too large)", resp.StatusCode, env.Err)
	}
	// The JSON decoder's doubling buffer costs about 4x the cap before the
	// limit trips; reading this body unbounded costs about 8x.
	if grown := after.TotalAlloc - before.TotalAlloc; grown > 6*wire.MaxFramePayload {
		t.Errorf("refusing a 2 MiB body allocated %d bytes, want at most %d", grown, 6*wire.MaxFramePayload)
	}
}

// zeros is an endless stream of '0' bytes.
type zeros struct{}

func (zeros) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = '0'
	}
	return len(p), nil
}
