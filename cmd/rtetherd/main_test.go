package main

import (
	"context"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/rtether"
	"repro/rtether/client"
)

// syncBuf is a goroutine-safe writer the daemon logs into while the
// test polls it.
type syncBuf struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuf) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuf) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestDaemonSmoke boots the daemon on a free port with the shared
// fabric scenario, establishes and releases a channel through the typed
// client, and shuts it down gracefully.
func TestDaemonSmoke(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var stdout, stderr syncBuf
	exit := make(chan int, 1)
	go func() {
		exit <- run(ctx, []string{
			"-addr", "127.0.0.1:0",
			"-scenario", "../rtexp/testdata/fabric_churn.json",
			"-quiet",
		}, &stdout, &stderr)
	}()

	addrRe := regexp.MustCompile(`http://([0-9.:]+)`)
	var addr string
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		if m := addrRe.FindStringSubmatch(stdout.String()); m != nil {
			addr = m[1]
			break
		}
		select {
		case code := <-exit:
			t.Fatalf("daemon exited early with %d\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
		default:
		}
	}
	if addr == "" {
		t.Fatalf("daemon never reported its address\nstdout: %s\nstderr: %s", stdout.String(), stderr.String())
	}
	if !strings.Contains(stdout.String(), "fabric (4 switches)") {
		t.Errorf("banner does not describe the topology: %s", stdout.String())
	}

	cl := client.New(addr)
	defer cl.CloseIdleConnections()
	if err := cl.Healthz(ctx); err != nil {
		t.Fatalf("healthz: %v", err)
	}
	ch, err := cl.Establish(ctx, rtether.ChannelSpec{Src: 1, Dst: 8, C: 1, P: 100, D: 50})
	if err != nil {
		t.Fatalf("establish: %v", err)
	}
	if len(ch.Budgets) != 5 { // node→sw0→sw1→sw2→sw3→node
		t.Errorf("budgets = %v, want 5 hops", ch.Budgets)
	}
	if err := cl.Release(ctx, ch.ID); err != nil {
		t.Fatalf("release: %v", err)
	}

	cancel()
	select {
	case code := <-exit:
		if code != 0 {
			t.Fatalf("daemon exited with %d\nstderr: %s", code, stderr.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not shut down")
	}
	if !strings.Contains(stdout.String(), "shut down") {
		t.Errorf("no shutdown banner: %s", stdout.String())
	}
}

// TestDaemonBadFlags pins the usage errors.
func TestDaemonBadFlags(t *testing.T) {
	var out, errOut syncBuf
	if code := run(context.Background(), nil, &out, &errOut); code != 2 {
		t.Errorf("missing -scenario: exit %d, want 2", code)
	}
	if code := run(context.Background(), []string{"-scenario", "does-not-exist.json"}, &out, &errOut); code != 1 {
		t.Errorf("missing file: exit %d, want 1", code)
	}
}
