package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/rtether/client"
)

// repoRoot walks up from the working directory to the module root (the
// directory whose go.mod declares module repro), so the program works
// from the root (go run ./bench) and from its own directory (go test).
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if b, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil && strings.HasPrefix(string(b), "module repro\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("bench: no go.mod of module repro above the working directory")
		}
		dir = parent
	}
}

// workspace is the benchmark's scratch area inside the checkout
// (bench/out): the daemon binary, scenario documents, span files.
type workspace struct {
	root string // module root
	out  string // <root>/bench/out

	buildOnce sync.Once
	daemonBin string
	buildErr  error
}

func newWorkspace() (*workspace, error) {
	root, err := repoRoot()
	if err != nil {
		return nil, err
	}
	out := filepath.Join(root, "bench", "out")
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, err
	}
	return &workspace{root: root, out: out}, nil
}

// daemonBinary builds cmd/rtetherd once per process into a private
// directory under bench/out (outside every timed region).
func (w *workspace) daemonBinary() (string, error) {
	w.buildOnce.Do(func() {
		dir, err := os.MkdirTemp(w.out, "bin-")
		if err != nil {
			w.buildErr = err
			return
		}
		bin := filepath.Join(dir, "rtetherd")
		cmd := exec.Command("go", "build", "-o", bin, "./cmd/rtetherd")
		cmd.Dir = w.root
		if out, err := cmd.CombinedOutput(); err != nil {
			w.buildErr = fmt.Errorf("bench: building rtetherd: %v\n%s", err, out)
			return
		}
		w.daemonBin = bin
	})
	return w.daemonBin, w.buildErr
}

// cleanup removes the per-process daemon binary directory.
func (w *workspace) cleanup() {
	if w.daemonBin != "" {
		_ = os.RemoveAll(filepath.Dir(w.daemonBin))
	}
}

// daemon is one running rtetherd child on ephemeral loopback ports.
type daemon struct {
	cmd      *exec.Cmd
	httpAddr string
	binAddr  string
	scenario string
	waitErr  chan error
}

// liveDaemons tracks every child so an interrupted or failing run can
// still reap them (no leaked rtetherd).
var liveDaemons struct {
	sync.Mutex
	m map[*daemon]struct{}
}

// killAllDaemons force-stops every child still running.
func killAllDaemons() {
	liveDaemons.Lock()
	ds := make([]*daemon, 0, len(liveDaemons.m))
	for d := range liveDaemons.m {
		ds = append(ds, d)
	}
	liveDaemons.Unlock()
	for _, d := range ds {
		d.stop()
	}
}

// startDaemon execs rtetherd on the layout with both listeners on
// ephemeral loopback ports and waits until it answers a health probe.
// spans sizes the flight recorder (0 = the daemon's default).
func (w *workspace) startDaemon(l layout, spans int) (*daemon, error) {
	bin, err := w.daemonBinary()
	if err != nil {
		return nil, err
	}
	f, err := os.CreateTemp(w.out, "scenario-*.json")
	if err != nil {
		return nil, err
	}
	if err := json.NewEncoder(f).Encode(l.scenario()); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	args := []string{"-scenario", f.Name(), "-addr", "127.0.0.1:0", "-binaddr", "127.0.0.1:0", "-quiet"}
	if spans > 0 {
		args = append(args, "-spans", strconv.Itoa(spans))
	}
	d := &daemon{scenario: f.Name(), waitErr: make(chan error, 1)}
	d.cmd = exec.Command(bin, args...)
	d.cmd.Stderr = os.Stderr
	d.cmd.SysProcAttr = childProcAttr()
	stdout, err := d.cmd.StdoutPipe()
	if err != nil {
		os.Remove(f.Name())
		return nil, err
	}
	if err := d.cmd.Start(); err != nil {
		os.Remove(f.Name())
		return nil, err
	}
	liveDaemons.Lock()
	if liveDaemons.m == nil {
		liveDaemons.m = make(map[*daemon]struct{})
	}
	liveDaemons.m[d] = struct{}{}
	liveDaemons.Unlock()

	addrs := make(chan [2]string, 1)
	go func() {
		var got [2]string
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, "on http://"); i >= 0 {
				got[0] = strings.TrimSpace(line[i+len("on http://"):])
			}
			if i := strings.Index(line, "binary protocol on "); i >= 0 {
				got[1] = strings.TrimSpace(line[i+len("binary protocol on "):])
			}
			if got[0] != "" && got[1] != "" {
				addrs <- got
				break
			}
		}
		_, _ = io.Copy(io.Discard, stdout)
		d.waitErr <- d.cmd.Wait()
	}()
	select {
	case a := <-addrs:
		d.httpAddr, d.binAddr = a[0], a[1]
	case err := <-d.waitErr:
		d.waitErr <- err
		d.stop()
		return nil, fmt.Errorf("bench: rtetherd exited during start-up: %v", err)
	case <-time.After(20 * time.Second):
		d.stop()
		return nil, fmt.Errorf("bench: rtetherd did not announce its listeners")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := client.New(d.httpAddr).Healthz(ctx); err != nil {
		d.stop()
		return nil, fmt.Errorf("bench: rtetherd not healthy: %w", err)
	}
	return d, nil
}

// stop terminates the child (SIGTERM, then SIGKILL after a grace
// period), waits for it and removes its scenario document. Idempotent.
func (d *daemon) stop() {
	liveDaemons.Lock()
	_, live := liveDaemons.m[d]
	delete(liveDaemons.m, d)
	liveDaemons.Unlock()
	if !live {
		return
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.waitErr:
	case <-time.After(5 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.waitErr
	}
	os.Remove(d.scenario)
}

// pid returns the child's process ID.
func (d *daemon) pid() int { return d.cmd.Process.Pid }

// dial opens one client of the daemon holding a single persistent
// connection on the given transport. Retries are off: a transport error
// must surface as a failed operation, not as latency.
func (d *daemon) dial(t client.Transport) *client.Client {
	opts := []client.Option{client.WithRetry(0, 0)}
	if t == client.TransportBinary {
		// One client owns one pipelined binary connection.
		opts = append(opts, client.WithTransport(client.TransportBinary), client.WithBinaryAddr(d.binAddr))
	} else {
		opts = append(opts, client.WithHTTPClient(&http.Client{
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
		}))
	}
	return client.New(d.httpAddr, opts...)
}

// meter brackets a measured phase against a daemon: it scrapes /metrics
// and reads both processes' CPU time and the benchmark's allocation
// count before the phase, and again after it, into the pass result.
type meter struct {
	d     *daemon
	admin *client.Client
	cpu0  float64
	self0 float64
	mem0  runtime.MemStats
}

// startMeter takes the "before" readings.
func (d *daemon) startMeter(ctx context.Context, m *measured) (*meter, error) {
	mt := &meter{d: d, admin: client.New(d.httpAddr)}
	var err error
	if m.promBefore, err = mt.admin.MetricsProm(ctx); err != nil {
		return nil, fmt.Errorf("bench: scraping /metrics: %w", err)
	}
	if mt.cpu0, err = procCPUSeconds(d.pid()); err != nil {
		return nil, err
	}
	mt.self0 = selfCPUSeconds()
	runtime.ReadMemStats(&mt.mem0)
	return mt, nil
}

// stop takes the "after" readings; with spans set it also fetches the
// daemon's flight recorder.
func (mt *meter) stop(ctx context.Context, m *measured, spans bool) error {
	var mem1 runtime.MemStats
	runtime.ReadMemStats(&mem1)
	m.mallocs = mem1.Mallocs - mt.mem0.Mallocs
	m.loadgenCPU = selfCPUSeconds() - mt.self0
	cpu1, err := procCPUSeconds(mt.d.pid())
	if err != nil {
		return err
	}
	m.daemonCPU = cpu1 - mt.cpu0
	if m.promAfter, err = mt.admin.MetricsProm(ctx); err != nil {
		return fmt.Errorf("bench: scraping /metrics: %w", err)
	}
	if spans {
		rep, err := mt.admin.Spans(ctx)
		if err != nil {
			return fmt.Errorf("bench: reading /v1/spans: %w", err)
		}
		m.flights = rep.Spans
	}
	return nil
}
