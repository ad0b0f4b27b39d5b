// Command rtetherd is the admission-control daemon: it hosts one
// rtether.Network — topology, partitioning scheme and simulator options
// loaded from a scenario document's layout sections (docs/scenario-format.md;
// the channel/event/churn sections are ignored, clients drive the
// admission plane over the wire instead) — and serves establishment,
// release, reconfiguration, stats, per-channel metrics and the
// streaming /v1/watch event feed over HTTP/JSON (docs/server.md).
//
// Concurrent establish requests are coalesced into merged per-spec
// admission passes, so N clients cost approximately one repartition and
// one verification sweep instead of N (compare the repartitions counter
// in GET /v1/stats).
//
//	rtetherd -scenario fabric.json -addr 127.0.0.1:8316
//	rtetherd -scenario fabric.json -coalesce 200us
//	rtetherd -scenario fabric.json -binaddr 127.0.0.1:8317
//	rtetherd -scenario fabric.json -metrics-addr 127.0.0.1:9316 -heartbeat 5s
//
// -binaddr opens a second listener speaking the length-prefixed binary
// protocol (docs/server.md#the-binary-protocol) for the operations the
// op table of rtether/wire gives a message pair; rtether/client selects
// it with WithTransport(TransportBinary). Concurrent establishes merge
// into flights of at most 1024.
// -pprof serves net/http/pprof profiles on a separate address.
//
// Observability (docs/observability.md): GET /metrics on the main
// listener serves the Prometheus text exposition and GET /v1/spans the
// admission flight recorder. -metrics-addr additionally serves the same
// /metrics on a dedicated listener, so a scraper needs no access to the
// admission API; -heartbeat publishes a periodic liveness event on the
// /v1/watch feed.
//
// SIGINT/SIGTERM shut the daemon down gracefully: in-flight requests
// drain, queued establishes fail with the "closed" error, and the
// hosted network is closed.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/scenario"
	"repro/internal/server"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run parses flags, boots the daemon and serves until ctx is canceled.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rtetherd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr     = fs.String("addr", "127.0.0.1:8316", "listen address (host:port; port 0 picks a free port)")
		binaddr  = fs.String("binaddr", "", "binary-protocol listen address (empty = HTTP/JSON only)")
		pprof    = fs.String("pprof", "", "serve net/http/pprof on this address (empty = disabled)")
		scenFile = fs.String("scenario", "", "scenario document providing the topology and network options (required)")
		coalesce = fs.Duration("coalesce", 0, "extra window to merge concurrent establishes (0 = merge in-flight only)")
		quiet    = fs.Bool("quiet", false, "suppress request logging")
		metrics  = fs.String("metrics-addr", "", "serve GET /metrics on a dedicated listener too (empty = main listener only; /metrics is always on -addr)")
		hbEvery  = fs.Duration("heartbeat", 0, "publish a heartbeat event on /v1/watch at this interval (0 = disabled)")
		spanCap  = fs.Int("spans", 0, "flight-recorder capacity served by GET /v1/spans (0 = default 256)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *scenFile == "" {
		fmt.Fprintln(stderr, "rtetherd: -scenario is required")
		return 2
	}
	sc, err := scenario.LoadFile(*scenFile)
	if err != nil {
		fmt.Fprintf(stderr, "rtetherd: %v\n", err)
		return 1
	}
	network, err := sc.BuildNetwork(0)
	if err != nil {
		fmt.Fprintf(stderr, "rtetherd: %v\n", err)
		return 1
	}

	var logger *log.Logger
	if !*quiet {
		logger = log.New(stderr, "rtetherd: ", log.LstdFlags)
	}
	srv := server.New(server.Config{
		Network:           network,
		CoalesceWindow:    *coalesce,
		HeartbeatInterval: *hbEvery,
		SpanRingSize:      *spanCap,
		Log:               logger,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(stderr, "rtetherd: %v\n", err)
		return 1
	}
	kind := "star"
	if sc.Fabric() {
		kind = fmt.Sprintf("fabric (%d switches)", len(sc.Topology.Switches))
	}
	fmt.Fprintf(stdout, "rtetherd: serving %q (%s) on http://%s\n", sc.Name, kind, ln.Addr())

	var binDone chan struct{}
	if *binaddr != "" {
		binLn, err := net.Listen("tcp", *binaddr)
		if err != nil {
			ln.Close()
			fmt.Fprintf(stderr, "rtetherd: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "rtetherd: binary protocol on %s\n", binLn.Addr())
		binDone = make(chan struct{})
		go func() {
			defer close(binDone)
			if err := srv.ServeBinary(binLn); err != nil {
				fmt.Fprintf(stderr, "rtetherd: binary listener: %v\n", err)
			}
		}()
	}
	if *metrics != "" {
		metricsLn, err := net.Listen("tcp", *metrics)
		if err != nil {
			ln.Close()
			fmt.Fprintf(stderr, "rtetherd: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "rtetherd: metrics on http://%s/metrics\n", metricsLn.Addr())
		// The side listener serves only the exposition — a scrape target
		// with no reach into the admission API.
		mm := http.NewServeMux()
		mm.HandleFunc("GET /metrics", srv.MetricsHandler())
		go func() { _ = http.Serve(metricsLn, mm) }()
	}
	if *pprof != "" {
		pprofLn, err := net.Listen("tcp", *pprof)
		if err != nil {
			ln.Close()
			fmt.Fprintf(stderr, "rtetherd: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "rtetherd: pprof on http://%s/debug/pprof/\n", pprofLn.Addr())
		// http.DefaultServeMux carries the net/http/pprof handlers; the
		// daemon's own API stays on its dedicated mux.
		go func() { _ = http.Serve(pprofLn, nil) }()
	}

	// A peer gets ten seconds to finish its request headers (slow-loris bound).
	httpSrv := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	shutdownDone := make(chan struct{})
	go func() {
		defer close(shutdownDone)
		<-ctx.Done()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = httpSrv.Shutdown(shutdownCtx)
	}()
	err = httpSrv.Serve(ln)
	if errors.Is(err, http.ErrServerClosed) {
		// Serve returns as soon as the listener closes; wait for
		// Shutdown's handler drain before tearing the service down, so
		// in-flight requests complete against a live coalescer/network.
		<-shutdownDone
	}
	srv.Close() // also tears down the binary listener and its connections
	if binDone != nil {
		<-binDone
	}
	_ = network.Close()
	if err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(stderr, "rtetherd: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, "rtetherd: shut down")
	return 0
}
