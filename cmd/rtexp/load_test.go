package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/scenario"
	"repro/internal/server"
	"repro/rtether/client"
)

// load runs `rtexp load args`.
func load(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	return run(ctx, append([]string{"load"}, args...), stdout, stderr)
}

// mustLoad reads a scenario document.
func mustLoad(t *testing.T, path string) *scenario.Scenario {
	t.Helper()
	sc, err := scenario.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// transport returns the load flags that pick proto: none for json, the
// binary listener's address for binary.
func transport(proto, binAddr string) []string {
	if proto == "binary" {
		return []string{"-binaddr", binAddr}
	}
	return nil
}

// bootDaemon serves the scenario's topology in-process over both
// transports, returning the HTTP URL and the binary listener address.
func bootDaemon(t *testing.T, path string) (httpURL, binAddr string) {
	t.Helper()
	rtnet, err := mustLoad(t, path).BuildNetwork(0)
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
		code := load(context.Background(), append([]string{
			"-addr", url,
			"-scenario", "testdata/fabric_churn.json",
			"-clients", "4",
			"-maxops", "400",
		}, transport(proto, binAddr)...), &stdout, &stderr)
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

// TestLoadMatchesReplay replays whole scenarios through the daemon
// with one client, over each transport, and checks the verdict counts
// against the in-process replay of the same document: both targets go
// through one step function, so static channels, churn, and failure
// events count the same either way.
func TestLoadMatchesReplay(t *testing.T) {
	for _, path := range []string{"testdata/fabric_churn.json", "../../internal/sweep/testdata/ring_failover.json"} {
		res, err := mustLoad(t, path).Replay()
		if err != nil {
			t.Fatal(err)
		}
		res.Network.Close()
		c := res.Counts()
		want := fmt.Sprintf("%d ops in ", c.Ops)
		verdicts := fmt.Sprintf(" · %d accepted / %d rejected / %d released / %d skipped · 0 protocol errors\n",
			c.Accepted, c.Rejected, c.Released, c.Skipped)
		for _, proto := range []string{"json", "binary"} {
			url, binAddr := bootDaemon(t, path)
			var stdout, stderr strings.Builder
			code := load(context.Background(), append([]string{
				"-addr", url, "-scenario", path, "-clients", "1",
			}, transport(proto, binAddr)...), &stdout, &stderr)
			got := stdout.String()
			if code != 0 || !strings.HasPrefix(got, want) || !strings.HasSuffix(got, verdicts) {
				t.Errorf("%s over %s: exit %d, summary %q; want %q…%q\nstderr: %s", path, proto, code, got, want, verdicts, stderr.String())
			}
		}
	}
}

// TestLoadSendsMulticastPriority checks that a replayed multicast
// channel reaches the daemon with its declared priority, like a unicast
// one: the survivability ladder orders by it.
func TestLoadSendsMulticastPriority(t *testing.T) {
	path := filepath.Join(t.TempDir(), "prio.json")
	const doc = `{
		"name": "prio", "slots": 100, "nodes": [1, 2, 3, 4],
		"channels": [
			{"name": "fan", "src": 1, "sinks": [2, 3], "c": 1, "p": 100, "d": 40, "priority": 5},
			{"name": "uni", "src": 4, "dst": 2, "c": 1, "p": 100, "d": 40, "priority": 3}
		]
	}`
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	url, _ := bootDaemon(t, path)
	var stdout, stderr strings.Builder
	if code := load(context.Background(), []string{"-addr", url, "-scenario", path, "-clients", "1"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\nstderr: %s", code, stderr.String())
	}
	chs, err := client.New(url).Channels(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	prio := make(map[uint16]int32)
	for _, ch := range chs {
		prio[ch.Spec.Src] = ch.Spec.Priority
	}
	if len(chs) != 2 || prio[1] != 5 || prio[4] != 3 {
		t.Errorf("daemon channels %+v: want the multicast at priority 5 and the unicast at 3", chs)
	}
}

// stepsOf compiles an inline scenario document's admission stream.
func stepsOf(t *testing.T, doc string) []scenario.Step {
	t.Helper()
	sc, err := scenario.Load(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	steps, err := sc.Steps()
	if err != nil {
		t.Fatal(err)
	}
	return steps
}

// shardOf maps every channel name to the shards its steps landed in.
func shardOf(shards [][]scenario.Step) map[string]map[int]bool {
	where := make(map[string]map[int]bool)
	for w, sh := range shards {
		for _, st := range sh {
			for _, name := range st.Names() {
				if where[name] == nil {
					where[name] = make(map[int]bool)
				}
				where[name][w] = true
			}
		}
	}
	return where
}

// TestShardPreservesPerNameOrder pins the sharding contract: every
// shard keeps the stream's order, each named channel's steps (its
// establish, then its release) stay in one shard, and nothing is lost
// or duplicated.
func TestShardPreservesPerNameOrder(t *testing.T) {
	names := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	var chans, events []string
	for i, n := range names {
		chans = append(chans, fmt.Sprintf(`{"name": %q, "src": 1, "dst": 2, "c": 1, "p": 100, "d": 40}`, n))
		events = append(events, fmt.Sprintf(`{"at": %d, "kind": "release", "channel": %q}`, 10+i, n))
	}
	chans = append(chans, `{"src": 1, "dst": 2, "c": 1, "p": 100, "d": 40}`) // unnamed
	steps := stepsOf(t, fmt.Sprintf(`{"slots": 100, "nodes": [1, 2], "channels": [%s], "events": [%s]}`,
		strings.Join(chans, ","), strings.Join(events, ",")))
	index := make(map[string]int, len(steps))
	for i, st := range steps {
		index[fmt.Sprint(st)] = i
	}

	shards := shard(steps, 3)
	if len(shards) != 3 {
		t.Fatalf("got %d shards, want 3", len(shards))
	}
	total := 0
	for w, sh := range shards {
		last := -1
		for _, st := range sh {
			total++
			i, ok := index[fmt.Sprint(st)]
			if !ok || i <= last {
				t.Errorf("shard %d: step %v out of stream order", w, st)
			}
			last = i
		}
	}
	if total != len(steps) {
		t.Errorf("sharding lost steps: %d of %d", total, len(steps))
	}
	where := shardOf(shards)
	for _, n := range names {
		if len(where[n]) != 1 {
			t.Errorf("channel %q spread over shards %v", n, where[n])
		}
	}
}

// TestShardKeepsEstablishAllTogether: the members of an establishAll
// are one atomic request, so they share a shard — and with them every
// later step on any member, including a second establishAll that ties
// in a further channel.
func TestShardKeepsEstablishAllTogether(t *testing.T) {
	var chans, events []string
	for i := 0; i < 8; i++ {
		for _, role := range []string{"x", "y", "z"} {
			chans = append(chans, fmt.Sprintf(`{"name": "%s%d", "src": 1, "dst": 2, "c": 1, "p": 1000, "d": 400}`, role, i))
		}
		events = append(events,
			fmt.Sprintf(`{"at": %d, "kind": "establishAll", "channels": ["x%d", "y%d"]}`, 10*i, i, i),
			fmt.Sprintf(`{"at": %d, "kind": "release", "channel": "y%d"}`, 10*i+1, i),
			fmt.Sprintf(`{"at": %d, "kind": "establishAll", "channels": ["y%d", "z%d"]}`, 10*i+2, i, i),
			fmt.Sprintf(`{"at": %d, "kind": "release", "channel": "x%d"}`, 10*i+3, i))
	}
	steps := stepsOf(t, fmt.Sprintf(`{"slots": 100, "nodes": [1, 2], "channels": [%s], "events": [%s]}`,
		strings.Join(chans, ","), strings.Join(events, ",")))
	where := shardOf(shard(steps, 4))
	used := make(map[int]bool)
	for i := 0; i < 8; i++ {
		group := make(map[int]bool)
		for _, role := range []string{"x", "y", "z"} {
			for w := range where[fmt.Sprintf("%s%d", role, i)] {
				group[w] = true
				used[w] = true
			}
		}
		if len(group) != 1 {
			t.Errorf("channels x%d, y%d, z%d spread over shards %v", i, i, i, group)
		}
	}
	if len(used) < 2 {
		t.Errorf("eight independent groups all landed in shards %v", used)
	}
}

// TestShardClampsWorkerCount covers the n<1 guard.
func TestShardClampsWorkerCount(t *testing.T) {
	steps := stepsOf(t, `{"slots": 100, "nodes": [1, 2], "channels": [{"name": "x", "src": 1, "dst": 2, "c": 1, "p": 100, "d": 40}]}`)
	shards := shard(steps, 0)
	if len(shards) != 1 || len(shards[0]) != 1 {
		t.Fatalf("shard(…, 0) = %v", shards)
	}
}
