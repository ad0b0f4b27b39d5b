package exp

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/fabricsim"
	"repro/internal/netsim"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// buildLoaded constructs a network with the paper layout, pushes the
// Fig. 18.5 request sequence through the wire-level establishment
// handshake, and starts traffic on every accepted channel, synchronized
// unless offsets are given. It returns the network and the accepted
// channel IDs.
func buildLoaded(cfg netsim.Config, offsets []int64) (*netsim.Network, []core.ChannelID) {
	n := netsim.New(cfg)
	for _, id := range traffic.PaperLayout.Nodes() {
		n.MustAddNode(id)
	}
	var accepted []core.ChannelID
	for _, spec := range traffic.PaperLayout.Requests(200, traffic.PaperSpec) {
		id, err := n.EstablishChannel(spec)
		if err != nil {
			continue
		}
		accepted = append(accepted, id)
	}
	for k, id := range accepted {
		ch := n.Controller().State().Get(id)
		var off int64
		if k < len(offsets) {
			off = offsets[k]
		}
		if err := n.Node(ch.Spec.Src).StartTraffic(id, off); err != nil {
			panic(err)
		}
	}
	return n, accepted
}

// simHorizon is the default measurement window: 30 hyperperiods of the
// paper workload after load completes.
const simHorizon = 3000

// simulate runs n through the measurement window and returns its report
// and the worst delay it observed.
func simulate(n *netsim.Network) (*netsim.Report, int64) {
	n.Run(n.Engine().Now() + simHorizon)
	rep := n.Report()
	_, worst := rep.WorstDelay()
	return rep, worst
}

// DelayGuarantee (E3) simulates the full Fig. 18.5 workload under both
// schemes and verifies Eq. 18.1: every frame of every admitted channel is
// delivered within d_i + T_latency. It reports the worst observed delay
// against the guarantee.
func DelayGuarantee() *stats.Table {
	tb := stats.NewTable(
		"E3 — simulated delay vs guarantee, Fig. 18.5 workload (3000 slots)",
		"scheme", "accepted", "delivered", "misses", "worst delay", "guarantee", "verdict")
	for _, dps := range []core.DPS{core.SDPS{}, core.ADPS{}} {
		n, accepted := buildLoaded(netsim.Config{DPS: dps}, nil)
		rep, worst := simulate(n)
		guarantee := traffic.PaperSpec.D + n.ExtraLatency()
		tb.AddRowf(dps.Name(), len(accepted), rep.TotalDelivered(), rep.TotalMisses(),
			worst, guarantee, passFail(rep.TotalMisses() == 0 && worst <= guarantee))
	}
	return tb
}

// FeasibilityModes (E2) contrasts the paper's two-constraint admission
// with a utilization-only test (sound only for d = P, as Liu & Layland
// showed). The utilization-only column over-admits 33 channels on one
// master uplink; simulation shows the resulting deadline misses, while
// the demand-criterion system stays clean.
func FeasibilityModes() *stats.Table {
	tb := stats.NewTable(
		"E2 — admission policy soundness, one master, C=3 P=100 d=40 (3000 slots)",
		"policy", "accepted", "delivered", "misses", "worst delay", "guarantee", "verdict")

	// The paper's full test (utilization + demand criterion) admits what
	// fits of 40 requests. Utilization only: U = 3q/100 <= 1 admits q = 33
	// channels, far past the demand bound, forced in unshaped; the
	// synchronous burst then blows the end-to-end budget.
	for _, forced := range []bool{false, true} {
		n := netsim.New(netsim.Config{DPS: core.SDPS{}, DisableShaping: forced})
		for _, id := range (traffic.MasterSlaveLayout{Masters: 1, Slaves: 40, SlaveBase: 100}).Nodes() {
			n.MustAddNode(id)
		}
		admit, requests, policy := n.EstablishChannel, 40, "utilization+demand (paper)"
		if forced {
			requests, policy = 33, "utilization only (unsound)"
			admit = func(spec core.ChannelSpec) (core.ChannelID, error) {
				return n.ForceChannel(spec, core.Partition{})
			}
		}
		var ids []core.ChannelID
		for s := 0; s < requests; s++ {
			id, err := admit(core.ChannelSpec{Src: 0, Dst: core.NodeID(100 + s), C: 3, P: 100, D: 40})
			if err == nil {
				ids = append(ids, id)
			} else if forced {
				panic(err)
			}
		}
		for _, id := range ids {
			if err := n.Node(0).StartTraffic(id, 0); err != nil {
				panic(err)
			}
		}
		rep, worst := simulate(n)
		tb.AddRowf(policy, len(ids), rep.TotalDelivered(),
			rep.TotalMisses(), worst, 40, passFail(rep.TotalMisses() == 0))
	}
	return tb
}

// ShapingAblation (E4) runs the ADPS-accepted workload with and without
// the switch's release-guard shaper, with randomized release offsets so
// uplink completion jitter is visible. Both modes must meet deadlines on
// this workload; the shaped run shows held frames and a delay profile
// closer to the analytical release pattern.
func ShapingAblation() *stats.Table {
	tb := stats.NewTable(
		"E4 — release-guard shaping ablation, ADPS workload (3000 slots)",
		"mode", "accepted", "delivered", "misses", "worst delay", "mean delay", "shaper holds")
	for _, disable := range []bool{false, true} {
		offsets := traffic.UniformOffsets(rand.New(rand.NewSource(77)), 200, 99)
		n, accepted := buildLoaded(netsim.Config{DPS: core.ADPS{}, DisableShaping: disable}, offsets)
		rep, worst := simulate(n)
		mean := 0.0
		for _, m := range rep.Channels {
			mean += m.Delays.Mean()
		}
		if len(rep.Channels) > 0 {
			mean /= float64(len(rep.Channels))
		}
		_, _, shaped, _, _ := n.Switch().Counters()
		mode := "shaped (release guard)"
		if disable {
			mode = "unshaped (paper-naive)"
		}
		tb.AddRowf(mode, len(accepted), rep.TotalDelivered(), rep.TotalMisses(),
			worst, mean, shaped)
	}
	return tb
}

// FabricDelay (E10) is the dynamic counterpart of E6: the channels the
// fabric admission accepts on line fabrics of 1..4 switches are actually
// simulated hop by hop, verifying that per-hop deadline partitioning
// bounds end-to-end delay — the multi-hop generalization of Eq. 18.1.
func FabricDelay() *stats.Table {
	tb := stats.NewTable(
		"E10 — fabric simulation: admitted channels meet end-to-end deadlines (1200 slots)",
		"switches", "scheme", "admitted", "delivered", "misses", "worst delay", "deadline", "verdict")
	for _, k := range []int{1, 2, 3, 4} {
		for _, dps := range []topo.HDPS{topo.HSDPS{}, topo.HADPS{}} {
			tp := topo.Line(k)
			for i, id := range traffic.PaperLayout.Nodes() {
				sw := topo.SwitchID(0)
				if i >= traffic.PaperLayout.Masters {
					sw = topo.SwitchID(k - 1)
				}
				if err := tp.AttachNode(id, sw); err != nil {
					panic(err)
				}
			}
			ctrl := topo.NewController(tp, topo.Config{DPS: dps})
			for _, spec := range traffic.PaperLayout.Requests(150, core.ChannelSpec{C: 3, P: 300, D: 60}) {
				_, _ = ctrl.Request(spec)
			}
			s, err := fabricsim.New(ctrl.State(), nil, fabricsim.Config{})
			if err != nil {
				panic(err)
			}
			s.Run(1200)
			delivered, misses, worst := s.Totals()
			tb.AddRowf(k, dps.Name(), ctrl.State().Len(), delivered, misses, worst, 60,
				passFail(misses == 0 && worst <= 60))
		}
	}
	return tb
}

// DisciplineMismatch (E11) runs the same EDF-admitted channel set under
// three dispatchers: EDF (the paper's, matching the analysis), DM and
// FIFO. Each master carries five loose channels (C=3, d=80) plus one
// tight one (C=2, d=12); EDF and DM serve the tight frames first, FIFO
// lets them drown in the synchronous loose burst — deadline misses
// despite a "feasible" admission, because the feasibility test models an
// EDF dispatcher.
func DisciplineMismatch() *stats.Table {
	tb := stats.NewTable(
		"E11 — EDF-admitted workload under different dispatchers (3000 slots)",
		"dispatcher", "accepted", "delivered", "misses", "tight-channel misses", "worst delay", "verdict")
	for _, disc := range []sched.Discipline{sched.DisciplineEDF, sched.DisciplineDM, sched.DisciplineFIFO} {
		n := netsim.New(netsim.Config{DPS: core.SDPS{}, Discipline: disc})
		const masters, slavesPerMaster = 4, 6
		for _, id := range (traffic.MasterSlaveLayout{Masters: masters, Slaves: masters * slavesPerMaster, SlaveBase: 100}).Nodes() {
			n.MustAddNode(id)
		}
		var loose, tight []core.ChannelID
		for m := 0; m < masters; m++ {
			for k := 0; k < slavesPerMaster; k++ {
				spec := core.ChannelSpec{Src: core.NodeID(m), Dst: core.NodeID(100 + m*slavesPerMaster + k), C: 3, P: 100, D: 80}
				class := &loose
				if k == slavesPerMaster-1 {
					spec.C, spec.D, class = 2, 12, &tight
				}
				id, err := n.EstablishChannel(spec)
				if err != nil {
					panic(err)
				}
				*class = append(*class, id)
			}
		}
		// Loose sources attach (and therefore release) first — the FIFO
		// worst case the analysis must survive under EDF.
		for _, id := range append(append([]core.ChannelID{}, loose...), tight...) {
			ch := n.Controller().State().Get(id)
			if err := n.Node(ch.Spec.Src).StartTraffic(id, 0); err != nil {
				panic(err)
			}
		}
		rep, worst := simulate(n)
		var tightMisses int64
		for _, id := range tight {
			if m := rep.Channels[id]; m != nil {
				tightMisses += m.Misses
			}
		}
		tb.AddRowf(disc.String(), len(loose)+len(tight), rep.TotalDelivered(),
			rep.TotalMisses(), tightMisses, worst, passFail(rep.TotalMisses() == 0))
	}
	return tb
}

// Coexistence (E5) loads the ADPS RT workload and adds Poisson background
// best-effort traffic between every master and its first slave at
// increasing rates. RT guarantees must be untouched; non-RT throughput
// degrades gracefully (drops at bounded queues).
func Coexistence() *stats.Table {
	tb := stats.NewTable(
		"E5 — RT/non-RT coexistence, ADPS workload + Poisson background (3000 slots)",
		"bg rate (frames/slot/node)", "rt misses", "rt worst", "bg sent", "bg delivered", "bg drops", "bg mean delay")
	for _, rate := range []float64{0, 0.05, 0.2, 0.5} {
		n, _ := buildLoaded(netsim.Config{DPS: core.ADPS{}, NonRTQueueCap: 256}, nil)
		start := n.Engine().Now()
		sent := 0
		rng := rand.New(rand.NewSource(99))
		for m := 0; m < traffic.PaperLayout.Masters; m++ {
			src := traffic.PaperLayout.Master(m)
			dst := traffic.PaperLayout.Slave(m)
			for _, at := range traffic.PoissonArrivals(rng, rate, simHorizon) {
				n.Engine().At(start+at, func() {
					n.Node(src).SendNonRT(dst, []byte("bg"))
				})
				sent++
			}
		}
		rep, worst := simulate(n)
		tb.AddRowf(fmt.Sprintf("%.2f", rate), rep.TotalMisses(), worst,
			sent, rep.NonRTDelivered, rep.NonRTDrops, rep.NonRTDelay.Mean())
	}
	return tb
}
