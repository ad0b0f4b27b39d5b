package main

import (
	"context"
	"io"
	"net"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"repro/internal/scenario"
	"repro/internal/server"
	"repro/rtether"
)

// load runs `rtexp load args`.
func load(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	return run(ctx, append([]string{"load"}, args...), strings.NewReader(""), stdout, stderr)
}

// bootDaemon serves the scenario's topology in-process over both
// transports, returning the HTTP URL and the binary listener address.
func bootDaemon(t *testing.T, path string) (httpURL, binAddr string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc, err := scenario.Load(f)
	if err != nil {
		t.Fatal(err)
	}
	rtnet, err := sc.BuildNetwork(0)
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(server.Config{Network: rtnet})
	ts := httptest.NewServer(srv.Handler())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.ServeBinary(ln) }()
	t.Cleanup(func() { ts.Close(); srv.Close(); _ = rtnet.Close() })
	return ts.URL, ln.Addr().String()
}

// TestLoadRunCleanOverBothTransports drives a short burst over each
// transport against an in-process daemon and checks the summary line:
// exit 0, operations timed, zero protocol errors.
func TestLoadRunCleanOverBothTransports(t *testing.T) {
	url, binAddr := bootDaemon(t, "testdata/fabric_churn.json")
	for _, proto := range []string{"json", "binary"} {
		var stdout, stderr strings.Builder
		code := load(context.Background(), []string{
			"-addr", url,
			"-proto", proto,
			"-binaddr", binAddr,
			"-scenario", "testdata/fabric_churn.json",
			"-clients", "4",
			"-maxops", "400",
		}, &stdout, &stderr)
		if code != 0 {
			t.Fatalf("proto=%s: exit %d\nstderr: %s", proto, code, stderr.String())
		}
		if strings.HasPrefix(stdout.String(), "0 ops") || !strings.HasSuffix(stdout.String(), " · 0 protocol errors\n") {
			t.Errorf("proto=%s: summary line wrong: %q", proto, stdout.String())
		}
	}
}

// TestLoadRunBadDaemon pins the unreachable-daemon failure mode.
func TestLoadRunBadDaemon(t *testing.T) {
	var stdout, stderr strings.Builder
	code := load(context.Background(), []string{
		"-addr", "127.0.0.1:1", // nothing listens there
		"-scenario", "testdata/fabric_churn.json",
	}, &stdout, &stderr)
	if code != 1 || !strings.Contains(stderr.String(), "not reachable") {
		t.Errorf("exit %d, stderr %s", code, stderr.String())
	}
}

// TestShardPreservesPerNameOrder pins the sharding contract: every
// named channel's establish precedes its release within one shard, and
// nothing is lost or duplicated.
func TestShardPreservesPerNameOrder(t *testing.T) {
	var items []scenario.WorkItem
	names := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	for _, n := range names {
		items = append(items, scenario.WorkItem{Name: n, Spec: rtether.ChannelSpec{Src: 1, Dst: 2, C: 1, P: 100, D: 40}})
	}
	for _, n := range names {
		items = append(items, scenario.WorkItem{Name: n, Release: true})
	}
	items = append(items, scenario.WorkItem{Spec: rtether.ChannelSpec{Src: 1, Dst: 2, C: 1, P: 100, D: 40}}) // unnamed

	shards := shard(items, 3)
	if len(shards) != 3 {
		t.Fatalf("got %d shards, want 3", len(shards))
	}
	total := 0
	seen := make(map[string]int) // name -> establishes seen before release
	for _, sh := range shards {
		open := make(map[string]bool)
		for _, it := range sh {
			total++
			if it.Name == "" {
				continue
			}
			if it.Release {
				if !open[it.Name] {
					t.Errorf("release of %q before its establish in the same shard", it.Name)
				}
				open[it.Name] = false
			} else {
				open[it.Name] = true
				seen[it.Name]++
			}
		}
	}
	if total != len(items) {
		t.Errorf("sharding lost items: %d of %d", total, len(items))
	}
	for _, n := range names {
		if seen[n] != 1 {
			t.Errorf("channel %q established %d times across shards", n, seen[n])
		}
	}
}

// TestShardClampsWorkerCount covers the n<1 guard.
func TestShardClampsWorkerCount(t *testing.T) {
	shards := shard([]scenario.WorkItem{{Name: "x"}}, 0)
	if len(shards) != 1 || len(shards[0]) != 1 {
		t.Fatalf("shard(…, 0) = %v", shards)
	}
}
