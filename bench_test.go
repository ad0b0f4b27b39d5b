// Repository-level benchmarks: one benchmark per table/figure of the
// paper's evaluation (the experiment harness functions regenerate the
// exact rows; these benches time them and report the headline numbers as
// custom metrics), plus microbenchmarks for the hot paths of the RT
// layer: the feasibility test, admission, the EDF queue, the frame
// codecs and the simulator core.
//
//	go test -bench=. -benchmem
//	go test -bench=Fig18_5 -v        # headline figure with its table
package repro_test

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/edf"
	"repro/internal/exp"
	"repro/internal/frame"
	"repro/internal/netsim"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/topo"
	"repro/internal/traffic"
	"repro/rtether"
)

// benchTable runs an experiment once per iteration, logging the table on
// the first iteration so `-v` shows the regenerated figure.
func benchTable(b *testing.B, run func() interface{ String() string }) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		tb := run()
		if i == 0 {
			b.Logf("\n%s", tb)
		}
	}
}

// --- E1: Figure 18.5 ---------------------------------------------------

func BenchmarkFig18_5(b *testing.B) {
	var lastSDPS, lastADPS int
	for i := 0; i < b.N; i++ {
		tb := exp.Fig185()
		rows := tb.Rows()
		last := rows[len(rows)-1]
		lastSDPS, _ = strconv.Atoi(last[1])
		lastADPS, _ = strconv.Atoi(last[2])
		if i == 0 {
			b.Logf("\n%s", tb)
		}
	}
	b.ReportMetric(float64(lastSDPS), "accepted-SDPS@200")
	b.ReportMetric(float64(lastADPS), "accepted-ADPS@200")
}

// --- E2: admission-policy soundness -------------------------------------

func BenchmarkFeasibilityModes(b *testing.B) {
	benchTable(b, func() interface{ String() string } { return exp.FeasibilityModes() })
}

// --- E3: delay guarantee under simulation --------------------------------

func BenchmarkDelayGuarantee(b *testing.B) {
	benchTable(b, func() interface{ String() string } { return exp.DelayGuarantee() })
}

// --- E4: shaping ablation -------------------------------------------------

func BenchmarkShapingAblation(b *testing.B) {
	benchTable(b, func() interface{ String() string } { return exp.ShapingAblation() })
}

// --- E5: RT / non-RT coexistence -------------------------------------------

func BenchmarkCoexistence(b *testing.B) {
	benchTable(b, func() interface{ String() string } { return exp.Coexistence() })
}

// --- E6: multi-switch fabrics ----------------------------------------------

func BenchmarkMultiSwitch(b *testing.B) {
	benchTable(b, func() interface{ String() string } { return exp.MultiSwitch() })
}

// --- E7: alternative schedulers --------------------------------------------

func BenchmarkAltSched(b *testing.B) {
	benchTable(b, func() interface{ String() string } { return exp.AltSched() })
}

// --- E8: deadline sweep -----------------------------------------------------

func BenchmarkDeadlineSweep(b *testing.B) {
	benchTable(b, func() interface{ String() string } { return exp.DeadlineSweep() })
}

// --- E9: DPS fallback search -------------------------------------------------

func BenchmarkDPSSearch(b *testing.B) {
	benchTable(b, func() interface{ String() string } { return exp.DPSSearch() })
}

// --- E10: fabric simulation ----------------------------------------------------

func BenchmarkFabricDelay(b *testing.B) {
	benchTable(b, func() interface{ String() string } { return exp.FabricDelay() })
}

// --- E11: dispatcher mismatch ---------------------------------------------------

func BenchmarkDisciplineMismatch(b *testing.B) {
	benchTable(b, func() interface{ String() string } { return exp.DisciplineMismatch() })
}

// --- Microbenchmarks: analysis hot paths -----------------------------------

// BenchmarkFeasibilityTest measures one full two-constraint EDF test on a
// link carrying 100 mixed-deadline channels — the admission-control inner
// loop.
func BenchmarkFeasibilityTest(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	tasks := make([]edf.Task, 100)
	for i := range tasks {
		c := int64(rng.Intn(3) + 1)
		tasks[i] = edf.Task{C: c, P: int64(rng.Intn(150) + 50), D: 2*c + int64(rng.Intn(60))}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := edf.TestDefault(tasks)
		if res.Verdict == edf.InvalidTask {
			b.Fatal(res)
		}
	}
}

// BenchmarkAdmissionSequence measures the full Fig. 18.5 admission
// sequence (200 requests with repartitioning and per-link verification).
func BenchmarkAdmissionSequence(b *testing.B) {
	requests := traffic.PaperLayout.Requests(200, traffic.PaperSpec)
	for _, dps := range []core.DPS{core.SDPS{}, core.ADPS{}} {
		b.Run(dps.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ctrl := core.NewController(core.Config{DPS: dps})
				for _, s := range requests {
					_, _ = ctrl.Request(s)
				}
			}
		})
	}
}

// scaleSpecs generates n feasible synthetic channels spread over a
// 100-source x 100-sink grid, so per-link load grows to n/100 while the
// population reaches fleet scale.
func scaleSpecs(n int) []core.ChannelSpec {
	specs := make([]core.ChannelSpec, n)
	for i := range specs {
		specs[i] = core.ChannelSpec{
			Src: core.NodeID(1 + i%100),
			Dst: core.NodeID(1001 + (i/100)%100),
			C:   1, P: 10000, D: 2000,
		}
	}
	return specs
}

// scaleFabricSpecs relaxes the periods so the trunk links — which
// concentrate half the population each — stay EDF-feasible at 10k
// channels (a trunk serving k unit-capacity channels needs a per-hop
// budget of at least k slots).
func scaleFabricSpecs(n int) []core.ChannelSpec {
	specs := scaleSpecs(n)
	for i := range specs {
		specs[i].P = 100000
		specs[i].D = 50000
	}
	return specs
}

// scaleFabric is a 4-switch line with the scale workload's sources on
// switches 0-1 and sinks on switches 2-3, so routes cross up to 5 hops.
func scaleFabric() *topo.Topology {
	top := topo.Line(4)
	for i := 0; i < 100; i++ {
		if err := top.AttachNode(core.NodeID(1+i), topo.SwitchID(i%2)); err != nil {
			panic(err)
		}
		if err := top.AttachNode(core.NodeID(1001+i), topo.SwitchID(2+i%2)); err != nil {
			panic(err)
		}
	}
	return top
}

// BenchmarkAdmissionScale measures the admission hot path at fleet scale
// (N in {1k, 10k} active channels) on both backends, sequentially (N
// Request calls, each repartitioning incrementally) and batched (one
// RequestAll). The naive engine deep-cloned and repartitioned all N
// channels per request — O(N^2) per sequence — and did not finish 10k in
// sane time; the incremental engine must.
func BenchmarkAdmissionScale(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		name := fmt.Sprintf("%dk", n/1000)
		specs := scaleSpecs(n)

		b.Run(name+"/star-sequential-ADPS", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ctrl := core.NewController(core.Config{DPS: core.ADPS{}})
				for _, s := range specs {
					if _, err := ctrl.Request(s); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
		b.Run(name+"/star-batch-ADPS", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ctrl := core.NewController(core.Config{DPS: core.ADPS{}})
				if _, err := ctrl.RequestAll(specs); err != nil {
					b.Fatal(err)
				}
			}
		})
		// The coalescing path: same merged workload, but with per-spec
		// verdicts (rtetherd's front-end). All-feasible, so the greedy
		// bisection resolves in one kernel pass like the atomic batch.
		b.Run(name+"/star-each-ADPS", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ctrl := core.NewController(core.Config{DPS: core.ADPS{}})
				_, errs := ctrl.AdmitEach(core.Unicast(specs))
				for _, err := range errs {
					if err != nil {
						b.Fatal(err)
					}
				}
			}
		})
		fabricSpecs := scaleFabricSpecs(n)
		b.Run(name+"/fabric-sequential-HSDPS", func(b *testing.B) {
			top := scaleFabric()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ctrl := topo.NewController(top, topo.Config{DPS: topo.HSDPS{}})
				for _, s := range fabricSpecs {
					if _, err := ctrl.Request(s); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
		b.Run(name+"/fabric-batch-HSDPS", func(b *testing.B) {
			top := scaleFabric()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ctrl := topo.NewController(top, topo.Config{DPS: topo.HSDPS{}})
				if _, err := ctrl.RequestAll(fabricSpecs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMulticastFanout quantifies what tree routing buys over
// replicated unicast on a shared trunk. Two switches, publishers on
// switch 0, 16 subscribers on switch 1: every fan-out must cross the
// one trunk. A distribution tree puts ONE task on the trunk per
// fan-out group (the shared prefix carries the stream once); N
// independent unicasts at the same {C, P, D} put N. Both variants
// admit fan-out groups until the first rejection and report the
// admitted-group count and the trunk cost per group — the tree side
// must sustain many times more groups at equal deadline.
func BenchmarkMulticastFanout(b *testing.B) {
	const (
		nSinks    = 16
		maxGroups = 64
		cBudget   = 1
		period    = 10000
		deadline  = 90 // 3 hops, so H-SDPS gives each hop a 30-slot budget
	)
	sinks := make([]core.NodeID, nSinks)
	for i := range sinks {
		sinks[i] = core.NodeID(1001 + i)
	}
	fanTopo := func() *topo.Topology {
		top := topo.Line(2)
		for g := 0; g < maxGroups; g++ {
			if err := top.AttachNode(core.NodeID(1+g), 0); err != nil {
				panic(err)
			}
		}
		for _, s := range sinks {
			if err := top.AttachNode(s, 1); err != nil {
				panic(err)
			}
		}
		return top
	}
	trunk := topo.Edge{From: topo.SwitchEnd(0), To: topo.SwitchEnd(1)}

	report := func(b *testing.B, st *topo.State, groups int) {
		b.Helper()
		if groups == 0 {
			b.Fatal("no fan-out group admitted at all")
		}
		load := st.LinkLoad(trunk)
		b.ReportMetric(float64(groups), "fanout-groups")
		b.ReportMetric(float64(load)/float64(groups), "trunk-tasks/group")
		b.ReportMetric(float64(groups*nSinks), "sinks-covered")
	}

	b.Run("tree", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ctrl := topo.NewController(fanTopo(), topo.Config{DPS: topo.HSDPS{}})
			groups := 0
			for g := 0; g < maxGroups; g++ {
				spec := core.MulticastSpec{
					Src: core.NodeID(1 + g), Sinks: sinks,
					C: cBudget, P: period, D: deadline,
				}
				if _, err := ctrl.RequestMulticast(spec); err != nil {
					break
				}
				groups++
			}
			if i == b.N-1 {
				report(b, ctrl.State(), groups)
			}
		}
	})
	b.Run("unicast", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ctrl := topo.NewController(fanTopo(), topo.Config{DPS: topo.HSDPS{}})
			groups := 0
		admitGroups:
			for g := 0; g < maxGroups; g++ {
				// A fan-out group is N separate channels; a rejected
				// member voids the group, so roll its siblings back.
				var admitted []*topo.HChannel
				for _, sink := range sinks {
					spec := core.ChannelSpec{
						Src: core.NodeID(1 + g), Dst: sink,
						C: cBudget, P: period, D: deadline,
					}
					ch, err := ctrl.Request(spec)
					if err != nil {
						for _, prev := range admitted {
							if rerr := ctrl.Release(prev.ID); rerr != nil {
								b.Fatal(rerr)
							}
						}
						break admitGroups
					}
					admitted = append(admitted, ch)
				}
				groups++
			}
			if i == b.N-1 {
				report(b, ctrl.State(), groups)
			}
		}
	})
}

// verifyHeavySpecs generates n feasible channels concentrated on 4
// sources and 4 sinks. Loads are exactly balanced (so ADPS splits every
// deadline in half) and the deadlines are C-spaced, which makes every
// demand checkpoint exactly tight: the batch is admissible, but only
// after a full-depth demand analysis of ~2500 checkpoints over ~2500
// tasks on each of the 8 links — the verification-bound regime.
func verifyHeavySpecs(n int) []core.ChannelSpec {
	specs := make([]core.ChannelSpec, n)
	for i := range specs {
		specs[i] = core.ChannelSpec{
			Src: core.NodeID(1 + i%4),
			Dst: core.NodeID(101 + i%4),
			C:   2, P: 5000, D: 8 + 4*int64(i/4),
		}
	}
	return specs
}

// BenchmarkAdmissionScaleVerifyBound measures the 10k-channel batch whose
// cost is the verification sweep's demand walks, not partitioning (the
// fabric batch of BenchmarkAdmissionScale is partition-bound).
func BenchmarkAdmissionScaleVerifyBound(b *testing.B) {
	specs := verifyHeavySpecs(10000)
	for i := 0; i < b.N; i++ {
		ctrl := core.NewController(core.Config{DPS: core.ADPS{}})
		chs, err := ctrl.RequestAll(specs)
		if err != nil {
			b.Fatal(err)
		}
		if len(chs) != len(specs) {
			b.Fatalf("accepted %d of %d", len(chs), len(specs))
		}
	}
}

// churnScenarioDoc builds a declarative churn scenario over the scale
// workload's 100-source × 100-sink population: a seeded Poisson arrival
// process establishes ~10k channels over the horizon, each held for an
// exponential time and then released. On the fabric variant the
// population is spread over the 4-switch line of scaleFabric, so routes
// cross up to 5 hops and the trunks concentrate half the churn each.
func churnScenarioDoc(fabric bool) string {
	var b strings.Builder
	b.WriteString(`{"name":"churn bench","slots":100000,"seed":7,`)
	var sources, dests []string
	for i := 0; i < 100; i++ {
		sources = append(sources, strconv.Itoa(1+i))
		dests = append(dests, strconv.Itoa(1001+i))
	}
	p, d := int64(10000), int64(2000)
	if fabric {
		// Trunk links carry half the channels each; relax the periods so
		// the concentrated load stays EDF-feasible (see scaleFabricSpecs).
		p, d = 100000, 50000
		b.WriteString(`"dps":"sdps","topology":{"switches":[0,1,2,3],"trunks":[[0,1],[1,2],[2,3]],"attachments":[`)
		for i := 0; i < 100; i++ {
			if i > 0 {
				b.WriteString(",")
			}
			fmt.Fprintf(&b, `{"node":%d,"switch":%d},{"node":%d,"switch":%d}`,
				1+i, i%2, 1001+i, 2+i%2)
		}
		b.WriteString(`]},`)
	} else {
		b.WriteString(`"dps":"adps","nodes":[`)
		b.WriteString(strings.Join(append(append([]string(nil), sources...), dests...), ","))
		b.WriteString(`],`)
	}
	fmt.Fprintf(&b, `"channels":[],"churn":[{"name":"load","rate":0.1,"holdMean":20000,`+
		`"sources":[%s],"destinations":[%s],"c":1,"p":%d,"d":%d}]}`,
		strings.Join(sources, ","), strings.Join(dests, ","), p, d)
	return b.String()
}

// BenchmarkScenarioChurn replays a ~10k-arrival churn timeline against
// admission control on both backends: sustained establish/release load
// with a few thousand channels live at steady state — the regime the
// incremental (copy-on-write, delta-repartitioning) engines exist for.
// Synthesis of the event stream is deterministic and included in the
// measured loop, matching what cmd/rtadmit -scenario does per run.
func BenchmarkScenarioChurn(b *testing.B) {
	for _, bc := range []struct {
		name   string
		fabric bool
	}{
		{"star-ADPS", false},
		{"fabric-HSDPS", true},
	} {
		b.Run(bc.name, func(b *testing.B) {
			s, err := scenario.Load(strings.NewReader(churnScenarioDoc(bc.fabric)))
			if err != nil {
				b.Fatal(err)
			}
			var events, accepted int
			for i := 0; i < b.N; i++ {
				res, err := s.Replay()
				if err != nil {
					b.Fatal(err)
				}
				acc, _, _ := res.EventCounts()
				events, accepted = len(res.Events), acc
			}
			b.ReportMetric(float64(events), "events/op")
			b.ReportMetric(float64(accepted), "applied/op")
		})
	}
}

// BenchmarkEDFQueue measures push+pop through the deadline-sorted queue
// at a realistic backlog (64 frames).
func BenchmarkEDFQueue(b *testing.B) {
	var q sched.EDFQueue
	for i := 0; i < 64; i++ {
		q.Push(int64(i%17), nil)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Push(int64(i%29), nil)
		q.Pop()
	}
}

// BenchmarkFrameEncodeDecode measures the RT data frame codec round trip
// (stamp deadline, checksum, parse, verify).
func BenchmarkFrameEncodeDecode(b *testing.B) {
	payload := make([]byte, 64)
	d := frame.Data{
		SrcMAC: frame.NodeMAC(1), DstMAC: frame.NodeMAC(2),
		Deadline: 123456, Channel: 42, Payload: payload,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		raw, err := frame.EncodeData(d)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := frame.DecodeData(raw); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatorThroughput measures simulated slots per second with
// the saturated ADPS Fig. 18.5 workload (110 channels, ~330 frames per
// 100 slots across 120 links).
func BenchmarkSimulatorThroughput(b *testing.B) {
	n := netsim.New(netsim.Config{DPS: core.ADPS{}})
	for _, id := range traffic.PaperLayout.Nodes() {
		n.MustAddNode(id)
	}
	var ids []core.ChannelID
	for _, s := range traffic.PaperLayout.Requests(200, traffic.PaperSpec) {
		if id, err := n.EstablishChannel(s); err == nil {
			ids = append(ids, id)
		}
	}
	for _, id := range ids {
		ch := n.Controller().State().Get(id)
		if err := n.Node(ch.Spec.Src).StartTraffic(id, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	const chunk = 1000
	for i := 0; i < b.N; i++ {
		n.Run(n.Engine().Now() + chunk)
	}
	b.StopTimer()
	if n.Report().TotalMisses() != 0 {
		b.Fatal("guarantee violated during benchmark")
	}
	b.ReportMetric(float64(chunk), "slots/op")
}

// BenchmarkEstablishment measures the full over-the-wire handshake
// (request frame, admission, forward, response, commit).
// BenchmarkFailover times the survivability core at fleet scale: 1000
// established channels cross one trunk of a 4-switch ring, and failing
// that trunk drops their in-flight frames, releases every reservation,
// re-routes the whole group onto the detour and re-admits it as one
// batch decision (rtether.Network.SetLinkUp). The measured op is the
// complete recovery pass — graph flip, batch re-admission, simulator
// reroute and budget re-sync — and every channel must survive as
// Rerouted, so the number is the re-admit latency for 1k affected
// channels, not a partial-loss shortcut.
func BenchmarkFailover(b *testing.B) {
	const n = 1000
	build := func() *rtether.Network {
		top := rtether.NewTopology()
		for s := rtether.SwitchID(0); s < 4; s++ {
			if err := top.AddSwitch(s); err != nil {
				b.Fatal(err)
			}
		}
		for _, tr := range [][2]rtether.SwitchID{{0, 1}, {1, 2}, {2, 3}, {3, 0}} {
			if err := top.Trunk(tr[0], tr[1]); err != nil {
				b.Fatal(err)
			}
		}
		for i := 0; i < 100; i++ {
			if err := top.Attach(rtether.NodeID(1+i), 0); err != nil {
				b.Fatal(err)
			}
			if err := top.Attach(rtether.NodeID(1001+i), 1); err != nil {
				b.Fatal(err)
			}
		}
		net := rtether.New(rtether.WithTopology(top), rtether.WithHDPS(rtether.HADPS()))
		specs := make([]rtether.ChannelSpec, n)
		for i := range specs {
			specs[i] = rtether.ChannelSpec{
				Src: rtether.NodeID(1 + i%100), Dst: rtether.NodeID(1001 + i%100),
				C: 1, P: 100000, D: 50000,
			}
		}
		if _, err := net.EstablishAll(specs); err != nil {
			b.Fatal(err)
		}
		return net
	}

	for i := 0; i < b.N; i++ {
		b.StopTimer()
		net := build()
		b.StartTimer()
		rep, err := net.SetLinkUp(0, 1, false)
		b.StopTimer()
		if err != nil {
			b.Fatal(err)
		}
		if rep.Affected != n || rep.Count(rtether.Rerouted) != n {
			b.Fatalf("recovery report: affected=%d rerouted=%d, want %d/%d",
				rep.Affected, rep.Count(rtether.Rerouted), n, n)
		}
		_ = net.Close()
		b.StartTimer()
	}
	b.ReportMetric(n, "affected-channels")
}

func BenchmarkEstablishment(b *testing.B) {
	n := netsim.New(netsim.Config{DPS: core.ADPS{}})
	for _, id := range traffic.PaperLayout.Nodes() {
		n.MustAddNode(id)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spec := traffic.PaperSpec
		spec.Src = traffic.PaperLayout.Master(i)
		spec.Dst = traffic.PaperLayout.Slave(i)
		id, err := n.EstablishChannel(spec)
		if err != nil {
			continue // saturated: rejections still exercise the path
		}
		if i%2 == 0 {
			_ = n.ReleaseChannel(id)
		}
	}
}
