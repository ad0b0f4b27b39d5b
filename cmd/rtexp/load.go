package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"sync"
	"time"

	"repro/internal/scenario"
	"repro/rtether"
	"repro/rtether/client"
)

// runLoad is `rtexp load`, the load harness for rtetherd: it replays a
// scenario document's whole admission stream — static channels, then
// every timeline event including the synthesized churn-generator
// streams (docs/scenario-format.md) — against a running daemon from
// many concurrent client goroutines, at full speed, and prints one
// summary line. The latency-critical calls go to the daemon's binary
// listener exactly when -binaddr is set, as rtetherd serves one exactly
// then; otherwise everything is HTTP/JSON to -addr. Admission
// rejections are counted verdicts (saturating the network is usually
// the point); transport failures and unclassified server errors are
// protocol errors, and any protocol error makes the run exit non-zero.
//
//	rtexp load -addr 127.0.0.1:8316 -scenario fabric.json -clients 16
//	rtexp load -binaddr 127.0.0.1:8317 -scenario fabric.json
func runLoad(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rtexp load", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr     = fs.String("addr", "127.0.0.1:8316", "rtetherd address (host:port or http:// URL)")
		binaddr  = fs.String("binaddr", "", "daemon binary-protocol address: when set, the latency-critical calls go over it (empty = HTTP/JSON only)")
		scenFile = fs.String("scenario", "", "scenario document providing the workload (required)")
		clients  = fs.Int("clients", 8, "concurrent client goroutines")
		maxOps   = fs.Int("maxops", 0, "cap on workload steps (0 = whole workload)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sc, code := loadScenario("rtexp load", *scenFile, stderr)
	if sc == nil {
		return code
	}
	steps, err := sc.Steps()
	if err != nil {
		fmt.Fprintf(stderr, "rtexp load: %v\n", err)
		return 1
	}
	if *maxOps > 0 && len(steps) > *maxOps {
		steps = steps[:*maxOps]
	}
	if len(steps) == 0 {
		fmt.Fprintln(stderr, "rtexp load: scenario has no channels or events to replay")
		return 1
	}

	var copts []client.Option
	if *binaddr != "" {
		copts = append(copts, client.WithTransport(client.TransportBinary), client.WithBinaryAddr(*binaddr))
	}
	cl := client.New(*addr, copts...)
	defer cl.CloseIdleConnections()
	if err := cl.Healthz(ctx); err != nil {
		fmt.Fprintf(stderr, "rtexp load: daemon not reachable: %v\n", err)
		return 1
	}

	start := time.Now()
	c, protoErrs := replay(ctx, cl, steps, *clients)
	wall := time.Since(start)
	ops := c.Ops + protoErrs
	fmt.Fprintf(stdout, "%d ops in %v (%.0f ops/s) · %d accepted / %d rejected / %d released / %d skipped · %d protocol errors\n",
		ops, wall.Round(time.Millisecond), float64(ops)/wall.Seconds(),
		c.Accepted, c.Rejected, c.Released, c.Skipped, protoErrs)
	if protoErrs > 0 {
		fmt.Fprintf(stderr, "rtexp load: FAILED: %d protocol errors\n", protoErrs)
		return 1
	}
	return 0
}

// shard splits the steps across n players by channel name, so each
// channel's steps keep their order within one player while players
// proceed independently — the concurrent-client pattern the daemon's
// coalescing front-end merges. The members of an establishAll share a
// player, and with them every step on any of them; steps that name no
// channel spread round-robin.
func shard(steps []scenario.Step, n int) [][]scenario.Step {
	if n < 1 {
		n = 1
	}
	// Union the names each establishAll ties together; a group is keyed
	// by its root name.
	parent := make(map[string]string)
	var root func(string) string
	root = func(name string) string {
		if p, ok := parent[name]; ok && p != name {
			r := root(p)
			parent[name] = r
			return r
		}
		return name
	}
	for _, st := range steps {
		if names := st.Names(); len(names) > 1 {
			for _, name := range names[1:] {
				if a, b := root(names[0]), root(name); a != b {
					parent[b] = a
				}
			}
		}
	}
	shards := make([][]scenario.Step, n)
	for i, st := range steps {
		w := i % n
		if names := st.Names(); len(names) > 0 && names[0] != "" {
			h := fnv.New32a()
			_, _ = io.WriteString(h, root(names[0]))
			w = int(h.Sum32() % uint32(n))
		}
		shards[w] = append(shards[w], st)
	}
	return shards
}

// replay plays the steps on the daemon behind cl from clients players
// (split by shard) and sums their verdicts. A rejection is a verdict; a
// failure that is not an admission rejection is a protocol error. ctx
// cancellation stops the replay early; calls already issued still
// complete.
func replay(ctx context.Context, cl *client.Client, steps []scenario.Step, clients int) (total scenario.Counts, protoErrs int) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, sh := range shard(steps, clients) {
		wg.Add(1)
		go func(sh []scenario.Step) {
			defer wg.Done()
			p := scenario.NewPlayer(cl)
			for _, st := range sh {
				if ctx.Err() != nil {
					return
				}
				out, err := p.Play(ctx, st)
				if err == nil {
					err = out.Err
				}
				mu.Lock()
				if err != nil && !errors.Is(err, rtether.ErrInfeasible) {
					protoErrs++
				} else {
					total.Add(out)
				}
				mu.Unlock()
			}
		}(sh)
	}
	wg.Wait()
	return total, protoErrs
}
