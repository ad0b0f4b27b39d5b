package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"sync"
	"time"

	"repro/internal/scenario"
	"repro/rtether"
	"repro/rtether/client"
)

// runLoad is `rtexp load`, the load harness for rtetherd: it replays a
// scenario document's establish/release workload — including the
// synthesized churn-generator streams (docs/scenario-format.md) —
// against a running daemon from many concurrent client goroutines, at
// full speed, and prints one summary line. -proto selects the transport
// (json over HTTP, or the daemon's binary listener via -binaddr).
// Admission rejections are expected outcomes (saturating the network is
// usually the point); transport failures and unclassified server errors
// are protocol errors, and any protocol error makes the run exit
// non-zero.
//
//	rtexp load -addr 127.0.0.1:8316 -scenario fabric.json -clients 16
//	rtexp load -proto binary -binaddr 127.0.0.1:8317 -scenario fabric.json
func runLoad(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rtexp load", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr     = fs.String("addr", "127.0.0.1:8316", "rtetherd address (host:port or http:// URL)")
		binaddr  = fs.String("binaddr", "", "daemon binary-protocol address (required with -proto binary)")
		proto    = fs.String("proto", "json", "transport for the latency-critical calls: json or binary")
		scenFile = fs.String("scenario", "", "scenario document providing the workload (required)")
		clients  = fs.Int("clients", 8, "concurrent client goroutines")
		maxOps   = fs.Int("maxops", 0, "cap on workload items (0 = whole workload)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *scenFile == "" {
		fmt.Fprintln(stderr, "rtexp load: -scenario is required")
		return 2
	}
	f, err := os.Open(*scenFile)
	if err != nil {
		fmt.Fprintf(stderr, "rtexp load: %v\n", err)
		return 1
	}
	sc, err := scenario.Load(f)
	f.Close()
	if err != nil {
		fmt.Fprintf(stderr, "rtexp load: %v\n", err)
		return 1
	}
	items, skippedKinds, err := sc.Workload()
	if err != nil {
		fmt.Fprintf(stderr, "rtexp load: %v\n", err)
		return 1
	}
	if *maxOps > 0 && len(items) > *maxOps {
		items = items[:*maxOps]
	}
	if len(items) == 0 {
		fmt.Fprintln(stderr, "rtexp load: scenario has no establish/release workload")
		return 1
	}
	if skippedKinds > 0 {
		fmt.Fprintf(stderr, "rtexp load: note: %d timeline events have no wire equivalent (reconfigure/setBackground) and were skipped\n", skippedKinds)
	}

	var copts []client.Option
	switch *proto {
	case "json":
	case "binary":
		if *binaddr == "" {
			fmt.Fprintln(stderr, "rtexp load: -proto binary requires -binaddr")
			return 2
		}
		copts = append(copts, client.WithTransport(client.TransportBinary), client.WithBinaryAddr(*binaddr))
	default:
		fmt.Fprintf(stderr, "rtexp load: unknown -proto %q (want json or binary)\n", *proto)
		return 2
	}
	cl := client.New(*addr, copts...)
	defer cl.CloseIdleConnections()
	if err := cl.Healthz(ctx); err != nil {
		fmt.Fprintf(stderr, "rtexp load: daemon not reachable: %v\n", err)
		return 1
	}

	start := time.Now()
	est, rel := replay(ctx, cl, items, *clients)
	wall := time.Since(start)
	ops := est.ok + est.rejected + est.protoErr + rel.ok + rel.protoErr
	protoErrs := est.protoErr + rel.protoErr
	fmt.Fprintf(stdout, "%d ops in %v (%.0f ops/s) · establish %d ok / %d rejected · release %d ok / %d skipped · %d protocol errors\n",
		ops, wall.Round(time.Millisecond), float64(ops)/wall.Seconds(),
		est.ok, est.rejected, rel.ok, rel.skipped, protoErrs)
	if protoErrs > 0 {
		fmt.Fprintf(stderr, "rtexp load: FAILED: %d protocol errors\n", protoErrs)
		return 1
	}
	return 0
}

// opCounts tallies one operation kind's outcomes.
type opCounts struct {
	ok       int // operations the daemon applied
	rejected int // admission rejections (expected outcomes, not failures)
	skipped  int // releases whose establish was rejected
	protoErr int // transport failures and unclassified server errors
}

// shard splits the workload across n workers, by channel name: each
// channel's establish→release order is preserved within one worker
// while shards proceed independently — exactly the concurrent-client
// pattern the daemon's coalescing front-end merges. Unnamed items
// spread round-robin.
func shard(items []scenario.WorkItem, n int) [][]scenario.WorkItem {
	if n < 1 {
		n = 1
	}
	shards := make([][]scenario.WorkItem, n)
	for i, it := range items {
		w := i % n
		if it.Name != "" {
			h := fnv.New32a()
			_, _ = io.WriteString(h, it.Name)
			w = int(h.Sum32() % uint32(n))
		}
		shards[w] = append(shards[w], it)
	}
	return shards
}

// replay runs the workload against the daemon behind cl from clients
// goroutines (split by shard) and sums their outcomes. ctx cancellation
// stops the replay early; calls already issued still complete.
func replay(ctx context.Context, cl *client.Client, items []scenario.WorkItem, clients int) (est, rel opCounts) {
	shards := shard(items, clients)
	ests := make([]opCounts, len(shards))
	rels := make([]opCounts, len(shards))
	var wg sync.WaitGroup
	for w := range shards {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ests[w], rels[w] = replayShard(ctx, cl, shards[w])
		}(w)
	}
	wg.Wait()
	for w := range shards {
		est.ok += ests[w].ok
		est.rejected += ests[w].rejected
		est.protoErr += ests[w].protoErr
		rel.ok += rels[w].ok
		rel.skipped += rels[w].skipped
		rel.protoErr += rels[w].protoErr
	}
	return est, rel
}

// replayShard replays one worker's items in order, tracking the channel
// IDs its establishes were assigned so later releases find them.
func replayShard(ctx context.Context, cl *client.Client, items []scenario.WorkItem) (est, rel opCounts) {
	ids := make(map[string]rtether.ChannelID)
	for _, it := range items {
		if ctx.Err() != nil {
			return est, rel
		}
		if it.Release {
			id, ok := ids[it.Name]
			if !ok {
				rel.skipped++ // its establish was rejected
				continue
			}
			delete(ids, it.Name)
			if err := cl.Release(ctx, id); err != nil {
				rel.protoErr++
			} else {
				rel.ok++
			}
			continue
		}
		var ch client.Channel
		var err error
		if len(it.Sinks) > 0 {
			ch, err = cl.EstablishMulticast(ctx, rtether.MulticastSpec{
				Src: it.Spec.Src, Sinks: it.Sinks, C: it.Spec.C, P: it.Spec.P, D: it.Spec.D,
			})
		} else {
			ch, err = cl.Establish(ctx, it.Spec)
		}
		switch {
		case err == nil:
			est.ok++
			if it.Name != "" {
				ids[it.Name] = ch.ID
			}
		case errors.Is(err, rtether.ErrInfeasible):
			est.rejected++ // an admission verdict, not a failure
		default:
			est.protoErr++
		}
	}
	return est, rel
}
