// Command bench is the repository's benchmark: four workloads that each
// stress different layers, end-to-end metrics measured with tracing off,
// and a second, traced pass over the same inputs that attributes time
// to single layers. BENCHMARK.json at the repository root names this
// program, its workloads and its metrics; bench/README.md is the
// catalogue.
//
//	go run ./bench -workload all -seed 1            # every metric of every workload
//	go run ./bench -workload star-wire -trace 0     # one workload, end-to-end metrics only
//	go run ./bench -repeat 2 -trace 0               # two full sets, compared
//	go run ./bench -smoke                           # about a second per workload
//
// Every workload is a closed loop with a stated caller count: a caller
// issues its next operation only after the previous one was answered.
// Run length is an operation count fixed by -seconds and the constants
// in this package, never by how fast the machine happens to be. Inputs
// are generated from -seed; every output is checked against an oracle
// and any mismatch makes the command exit non-zero.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"syscall"
	"time"

	"repro/rtether"
	"repro/rtether/client"
)

// Operation rates the run lengths are derived from: operations per
// second of -seconds, calibrated once on the 2-core reference machine
// and frozen, so that a faster system finishes early instead of being
// handed more work.
const (
	starOpsPerCallerSec   = 1100 // star-wire, each of 16 callers
	fabricOpsPerCallerSec = 500  // fabric-churn, each of 2 callers
	bulkPairsPerLayoutSec = 160  // provision-bulk release→establish pairs, each of 2 layouts
	simStarBlocksPerSec   = 14   // dataplane-sim 1000-slot blocks on the star
	simFabricBlocksPerSec = 40   // dataplane-sim 1000-slot blocks on the fabric
)

// sizing is the run length of every workload.
type sizing struct {
	seconds   float64
	smoke     bool
	setupReps int
}

func (sz sizing) scale(perSec float64) int {
	n := int(perSec * sz.seconds)
	if n < 1 {
		n = 1
	}
	return n
}

func (sz sizing) bulk() bulkSizes {
	b := bulkSizes{
		all: 5000, live: 10000, group: 512,
		provisionReps: 3 + int(sz.seconds/4),
		seqPairs:      sz.scale(bulkPairsPerLayoutSec),
		readSweeps:    2 + int(sz.seconds/2),
		failoverN:     1000, failoverReps: 5,
		warmOps: 1000, setupReps: 3 * sz.setupReps,
	}
	if sz.smoke {
		b.all, b.live, b.group, b.provisionReps = 500, 1000, 128, 2
		b.failoverN, b.failoverReps, b.readSweeps = 100, 2, 2
	}
	return b
}

func (sz sizing) sim() simSizes {
	return simSizes{
		blockSlots:   1000,
		starBlocks:   sz.scale(simStarBlocksPerSec),
		fabricBlocks: sz.scale(simFabricBlocksPerSec),
		setupReps:    3 * sz.setupReps,
	}
}

// runner is one workload bound to its generated inputs.
type runner struct {
	name   string
	pass   func(traced bool) (*measured, error)
	ledger func() (*ledgerInput, error)
	// wire describes the daemon-backed workloads' transport; nil for the
	// in-process ones.
	wire *wireWorkload
}

// newRunner generates a workload's inputs from the seed and, for the
// daemon-backed ones, computes the oracle's expectations by replaying
// each caller on a fresh in-process network (callers in parallel: they
// share no link, so each needs only its own network).
func newRunner(ws *workspace, name string, seed int64, sz sizing) (*runner, error) {
	switch name {
	case wlStarWire, wlFabricChurn:
		w := &wireWorkload{name: name, conns: runtime.GOMAXPROCS(0), warmOps: 1000, setupReps: sz.setupReps}
		if w.conns > 2 {
			w.conns = 2
		}
		if name == wlStarWire {
			w.layout, w.transport = starWireLayout(), client.TransportBinary
			w.callers = genStarWire(seed, sz.scale(starOpsPerCallerSec))
		} else {
			w.layout, w.transport = fabricChurnLayout(), client.TransportJSON
			w.callers = genFabricChurn(seed, sz.scale(fabricOpsPerCallerSec))
		}
		if sz.smoke {
			w.warmOps = 100
		}
		if err := oracle(w.layout, w.callers); err != nil {
			return nil, err
		}
		return &runner{
			name: name, wire: w,
			pass:   func(traced bool) (*measured, error) { return w.run(ws, traced) },
			ledger: func() (*ledgerInput, error) { return wireLedgerInput(w), nil },
		}, nil
	case wlBulk:
		w := genBulk(seed, sz.bulk())
		return &runner{
			name:   name,
			pass:   w.run,
			ledger: func() (*ledgerInput, error) { return w.ledgerInput(), nil },
		}, nil
	case wlDataplane:
		w := genSim(seed, sz.sim())
		return &runner{
			name:   name,
			pass:   w.run,
			ledger: w.ledgerInput,
		}, nil
	}
	return nil, fmt.Errorf("bench: unknown workload %q", name)
}

// oracle fills in every caller's expectations.
func oracle(l layout, callers []*callerInput) error {
	errs := make([]error, len(callers))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for k, c := range callers {
		wg.Add(1)
		sem <- struct{}{}
		go func(k int, c *callerInput) {
			defer wg.Done()
			defer func() { <-sem }()
			net := l.network()
			errs[k] = c.replay(net)
			_ = net.Close()
		}(k, c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("bench: oracle: %w", err)
		}
	}
	return nil
}

// wireLedgerInput derives the layer ledger's inputs from a daemon-backed
// workload: the first caller's start batch and stream prefix, on the
// workload's own layout and on the other engine's rendering of it.
func wireLedgerInput(w *wireWorkload) *ledgerInput {
	c := w.callers[0]
	e := engineInput{layout: w.layout, native: true, viaEach: true, start: c.Preload, stream: streamPrefix(c)}
	for _, cc := range w.callers {
		if len(cc.Preload) > 0 {
			e.pop = append(e.pop, cc.Preload...)
		} else {
			e.pop = append(e.pop, cc.Warm, cc.Warm)
		}
	}
	other := e
	other.native = false
	if w.layout.star() {
		// The star's nodes on one switch are a valid one-switch fabric.
		return &ledgerInput{star: e, fabric: other}
	}
	other.layout = w.layout.collapsed()
	return &ledgerInput{star: other, fabric: e}
}

// ledgerInput derives the ledger's inputs from provision-bulk: both
// layouts are its own.
func (w *bulkWorkload) ledgerInput() *ledgerInput {
	var es [2]engineInput
	for k, in := range w.Layouts {
		e := engineInput{layout: in.Layout, native: true, start: in.Specs}
		pop := in.Specs
		if len(pop) > 1000 {
			pop = pop[:1000]
		}
		e.pop = pop
		live, est := len(in.Specs), 0
		for _, o := range in.Seq {
			if len(e.stream) >= ledgerOps {
				break
			}
			if o.Kind == opRelease {
				e.stream = append(e.stream, ledgerOp{Release: true, Pos: int(o.Slot) % live})
				live--
				continue
			}
			e.stream = append(e.stream, ledgerOp{Spec: o.Spec})
			if in.Want[est] {
				live++
			}
			est++
		}
		es[k] = e
	}
	return &ledgerInput{star: es[0], fabric: es[1]}
}

// ledgerInput derives the ledger's inputs from dataplane-sim: the
// admitted Fig. 18.5 set with its reconfiguration cycles on the star,
// the standing fabric population with the same kind of cycle on the
// fabric.
func (w *simWorkload) ledgerInput() (*ledgerInput, error) {
	st, err := w.setUpStar(nil)
	if err != nil {
		return nil, err
	}
	defer st.net.Close()
	star := engineInput{layout: w.Star, native: true}
	for _, lc := range st.live {
		star.start = append(star.start, lc.spec)
	}
	star.pop = star.start
	cycle := func(e *engineInput, picks []int) {
		// Mirror the replay's live list (swap-remove on release, append on
		// establish) so every cycle re-requests exactly the spec it freed.
		specs := append([]rtether.ChannelSpec(nil), e.start...)
		for _, p := range picks {
			if len(e.stream) >= ledgerOps {
				break
			}
			i := p % len(specs)
			spec := specs[i]
			specs[i] = specs[len(specs)-1]
			specs[len(specs)-1] = spec
			e.stream = append(e.stream, ledgerOp{Release: true, Pos: i}, ledgerOp{Spec: spec})
		}
	}
	cycle(&star, w.Reconfig)
	fabric := engineInput{layout: w.Fabric, native: true}
	for _, batch := range w.FabricSpecs {
		fabric.start = append(fabric.start, batch...)
	}
	fabric.pop = fabric.start
	cycle(&fabric, w.Reconfig)
	return &ledgerInput{star: star, fabric: fabric}, nil
}

// runWorkload runs one workload at one seed: the untraced pass for the
// end-to-end metrics, then — with traced set — the traced pass and the
// layer ledger for the per-layer ones.
func runWorkload(ws *workspace, name string, seed int64, sz sizing, traced bool) (*result, error) {
	t0 := time.Now()
	r, err := newRunner(ws, name, seed, sz)
	if err != nil {
		return nil, err
	}
	m, err := r.pass(false)
	if err != nil {
		return nil, err
	}
	res := &result{
		Workload: name, Seed: seed,
		Attempted: m.attempted, Failed: m.failed, Failures: m.failures,
		EndToEnd: endToEndOf(name, m), Counts: m.counts,
		MeasuredS: m.wall().Seconds(),
	}
	if traced {
		if err := r.traced(ws, seed, sz.smoke, res); err != nil {
			return nil, err
		}
	}
	res.Correct = res.Failed == 0
	res.ElapsedS = time.Since(t0).Seconds()
	return res, nil
}

// traced runs the traced pass and the layer ledger and fills in the
// per-layer metrics. Failures of the traced pass count like the
// untraced pass's own.
func (r *runner) traced(ws *workspace, seed int64, quick bool, res *result) error {
	mt, err := r.pass(true)
	if err != nil {
		return err
	}
	res.Attempted += mt.attempted
	res.Failed += mt.failed
	res.Failures = append(res.Failures, mt.failures...)

	in, err := r.ledger()
	if err != nil {
		return err
	}
	in.quick = quick
	statsCalls := statsProbeCalls
	if in.quick {
		statsCalls /= 8
	}
	rec := newRecorder(time.Now())
	out, err := in.ledger(rec)
	if err != nil {
		return err
	}
	if out["obs.observe_allocs"] >= 0.01 {
		res.Failed++
		res.Failures = append(res.Failures, fmt.Sprintf("obs: Histogram.Observe allocates (%.3f allocations per call)", out["obs.observe_allocs"]))
	}
	delete(out, "obs.observe_allocs")
	p := in.primary()
	wireCodec(out, p.stream)
	if err := in.handlerProbe(out, rec); err != nil {
		return err
	}

	// Wire-backed figures: a sequential probe per transport on the
	// workload's own specs; the workload's traced pass itself where it
	// talks to a daemon.
	figs := map[client.Transport]wireFigures{}
	for _, t := range []client.Transport{client.TransportBinary, client.TransportJSON} {
		f, err := ws.wireProbe(p, t, statsCalls, rec)
		if err != nil {
			return err
		}
		figs[t] = f
		out["client.stats_rtt_us."+transportName(t)] = f.statsRTTus
		out["server.dispatch_ns."+transportName(t)] = f.dispatchNs
	}
	main := figs[client.TransportJSON]
	if p.layout.star() {
		main = figs[client.TransportBinary]
	}
	if r.wire != nil {
		main = mt.figures(r.wire.transport, mt.phaseStart)
		out["server.dispatch_ns."+transportName(r.wire.transport)] = main.dispatchNs
	}
	out["client.overhead_us"] = main.rttMeanUs - main.dispatchNs/1e3
	out["client.allocs_per_op"] = main.allocsPerOp
	out["client.establish_p99_us"], _ = mt.classStat(clsEstablish, 99, minP99)
	out["server.flights"] = main.flights
	out["server.merge_width"] = main.mergeWidth
	out["server.coalesce_wait_ns"] = main.waitNs
	out["server.admit_ns"] = main.admitNs
	out["server.verify_ns"] = main.verifyNs
	out["server.publish_ns"] = main.publishNs
	out["server.cpu_util"] = main.cpuUtil
	out["bench.loadgen_cpu_share"] = main.loadgenShare
	out["bench.unexplained_us"] = main.rttP50Us - out["client.overhead_us"] - (main.waitNs+main.admitNs+main.publishNs)/1e3
	if traced := endToEndOf(r.name, mt)["ops_per_s"].Value; traced > 0 {
		out["bench.trace_overhead_ratio"] = res.EndToEnd["ops_per_s"].Value / traced
	}

	res.PerLayer = map[string]value{}
	for _, d := range perLayer {
		res.PerLayer[d.Name] = value{Value: out[d.Name], Unit: d.Unit}
	}
	recs := append(mt.recorders, rec)
	_, err = writeTrace(filepath.Join(ws.out, "trace-"+r.name+".json"), r.name, seed, recs)
	return err
}

// traceFlag accepts the driver's "--trace 0|1" as well as true/false.
type traceFlag bool

func (t *traceFlag) String() string { return strconv.FormatBool(bool(*t)) }

func (t *traceFlag) Set(s string) error {
	b, err := strconv.ParseBool(s)
	*t = traceFlag(b)
	return err
}

func main() { os.Exit(run()) }

func run() int {
	var (
		workload = flag.String("workload", "all", "workload to run: star-wire | fabric-churn | provision-bulk | dataplane-sim | all")
		seed     = flag.Int64("seed", 1, "seed every generated input is derived from")
		seconds  = flag.Float64("seconds", 20, "measured-phase length each workload's fixed operation count is calibrated to, on the reference machine")
		outFile  = flag.String("out", "", "write machine-readable results (JSON) to this file")
		smoke    = flag.Bool("smoke", false, "tiny sizes, about a second per workload (what the tests run)")
		repeat   = flag.Int("repeat", 1, "run this many full sets and compare the first two (repeatability check)")
		traced   = traceFlag(true)
	)
	flag.Var(&traced, "trace", "1 (the default) adds the traced pass and the per-layer metrics, with spans written to bench/out/trace-<workload>.json; 0 runs the untraced pass only")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", flag.Arg(0))
		return 2
	}

	sz := sizing{seconds: *seconds, smoke: *smoke, setupReps: 3}
	if *smoke {
		sz.seconds, sz.setupReps = 0.5, 1
	}
	var names []string
	for _, d := range workloadDefs {
		if *workload == "all" || *workload == d.Name {
			names = append(names, d.Name)
		}
	}
	if len(names) == 0 {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workload)
		return 2
	}

	ws, err := newWorkspace()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer ws.cleanup()
	defer killAllDaemons()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		killAllDaemons()
		ws.cleanup()
		os.Exit(130)
	}()

	fmt.Printf("bench: GOMAXPROCS=%d, %d connection(s) at most, seed %d, sized for %.1f s per workload; loopback, not a real link\n",
		runtime.GOMAXPROCS(0), min(2, runtime.GOMAXPROCS(0)), *seed, sz.seconds)
	ok := true
	var sets [][]*result
	for set := 0; set < *repeat; set++ {
		var results []*result
		for _, name := range names {
			res, err := runWorkload(ws, name, *seed, sz, bool(traced))
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
				return 1
			}
			res.printTable(os.Stdout)
			ok = ok && res.Correct
			results = append(results, res)
		}
		sets = append(sets, results)
	}
	if *repeat > 1 && !compareSets(os.Stdout, sets) {
		ok = false
	}
	if *outFile != "" {
		if err := writeResults(*outFile, sets); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	if len(names) == 1 {
		fmt.Println(sets[0][0].driverLine(bool(traced)))
	}
	if !ok {
		fmt.Fprintln(os.Stderr, "bench: FAILED: see the failures above")
		return 1
	}
	return 0
}
