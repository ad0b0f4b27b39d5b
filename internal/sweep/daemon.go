package sweep

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"time"

	"repro/internal/benchfmt"
	"repro/internal/loadgen"
	"repro/internal/scenario"
	"repro/internal/server"
	"repro/rtether/client"
)

// defaultClients sizes daemon mode's concurrent client pool when the
// grid does not say.
const defaultClients = 8

// runDaemonCell boots a private daemon for the cell — an
// internal/server instance over the cell's network, on ephemeral
// localhost listeners — replays the workload over the wire from
// concurrent clients, snapshots the daemon's coalescing counters, then
// drains and tears everything down. Each cell gets its own daemon, so
// parallel cells never share admission state.
func (g *Grid) runDaemonCell(ctx context.Context, c *Cell, s *scenario.Scenario) (benchfmt.Result, error) {
	items, _, err := s.Workload()
	if err != nil {
		return benchfmt.Result{}, err
	}
	if g.MaxOps > 0 && len(items) > g.MaxOps {
		items = items[:g.MaxOps]
	}
	if len(items) == 0 {
		return benchfmt.Result{}, fmt.Errorf("scenario has no establish/release workload to drive over the wire")
	}
	network, err := s.BuildNetwork(0)
	if err != nil {
		return benchfmt.Result{}, err
	}
	defer network.Close()

	srv := server.New(server.Config{Network: network})
	var binDone chan struct{}
	defer func() {
		// Close stops the binary accept loop too; wait for it so the
		// cell tears down fully before the next one reuses the port
		// space.
		srv.Close()
		if binDone != nil {
			<-binDone
		}
	}()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return benchfmt.Result{}, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	httpDone := make(chan struct{})
	go func() {
		defer close(httpDone)
		_ = hs.Serve(ln)
	}()
	defer func() {
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_ = hs.Shutdown(shutdownCtx)
		cancel()
		<-httpDone
	}()

	var copts []client.Option
	if c.Transport == "binary" {
		bln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return benchfmt.Result{}, err
		}
		binDone = make(chan struct{})
		go func() {
			defer close(binDone)
			_ = srv.ServeBinary(bln)
		}()
		copts = append(copts, client.WithTransport(client.TransportBinary), client.WithBinaryAddr(bln.Addr().String()))
	}

	cl := client.New(ln.Addr().String(), copts...)
	defer cl.CloseIdleConnections()
	if err := cl.Healthz(ctx); err != nil {
		return benchfmt.Result{}, fmt.Errorf("daemon not reachable: %w", err)
	}
	statsBefore, err := cl.Stats(ctx)
	if err != nil {
		return benchfmt.Result{}, err
	}
	promBefore, err := cl.MetricsProm(ctx)
	if err != nil {
		return benchfmt.Result{}, fmt.Errorf("scraping /metrics before run: %w", err)
	}

	clients := g.Clients
	if clients < 1 {
		clients = defaultClients
	}
	res := loadgen.Run(ctx, cl, items, clients)
	if ctx.Err() != nil {
		return benchfmt.Result{}, ctx.Err()
	}
	statsAfter, err := cl.Stats(ctx)
	if err != nil {
		return benchfmt.Result{}, err
	}
	promAfter, err := cl.MetricsProm(ctx)
	if err != nil {
		return benchfmt.Result{}, fmt.Errorf("scraping /metrics after run: %w", err)
	}
	if n := res.ProtoErrs(); n > 0 {
		return benchfmt.Result{}, fmt.Errorf("%d protocol errors during replay", n)
	}

	est := res.Establish
	out := benchfmt.Result{
		Name: cellTitle(g, c),
		Runs: int64(res.Ops()),
		Metrics: map[string]float64{
			"accepted":     float64(est.Accepted),
			"rejected":     float64(est.Rejected),
			"released":     float64(res.Release.Accepted),
			"skipped":      float64(res.Release.Skipped),
			"ops/s":        res.OpsPerSec(),
			"wall-ns":      float64(res.Wall.Nanoseconds()),
			"clients":      float64(clients),
			"flights":      float64(statsAfter.Server.Flights - statsBefore.Server.Flights),
			"repartitions": float64(statsAfter.Admission.Repartitions - statsBefore.Admission.Repartitions),
		},
	}
	// Server-side counters attributed to this cell by differencing the
	// /metrics scrape taken before and after the replay.
	delta := func(series string) float64 { return promAfter[series] - promBefore[series] }
	linksChecked := delta("rtether_links_checked_total")
	cacheHits := delta("rtether_verify_cache_hits_total")
	out.Metrics["srv-links-checked"] = linksChecked
	out.Metrics["srv-verify-cache-hits"] = cacheHits
	if linksChecked > 0 {
		out.Metrics["srv-cache-hit-rate"] = cacheHits / linksChecked
	}
	out.Metrics["srv-flights"] = delta("rtether_flights_total")
	if f := delta("rtether_flights_total"); f > 0 {
		// Establishes per flight: the coalescer's effective merge factor.
		out.Metrics["srv-coalesce-merges"] = delta("rtether_establishes_total") / f
	}
	out.Metrics["srv-watch-evictions"] = delta("rtether_watch_evictions_total")
	out.Metrics["srv-sweep-seconds"] = delta("rtether_sweep_seconds_total")
	if est.Lat.Count() > 0 {
		out.Metrics["ns/op"] = est.Lat.Mean()
		out.Metrics["est-p50-ns"] = float64(est.Lat.Percentile(50))
		out.Metrics["est-p90-ns"] = float64(est.Lat.Percentile(90))
		out.Metrics["est-p99-ns"] = float64(est.Lat.Percentile(99))
		out.Metrics["est-max-ns"] = float64(est.Lat.Max())
	}
	return out, nil
}
