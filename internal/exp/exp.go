// Package exp is the experiment harness: one function per table/figure of
// the paper's evaluation (plus the supporting and future-work experiments
// catalogued by rtexp -list), each returning a printable table with the
// same rows/series the paper reports. The cmd/rtexp binary and the
// repository benchmarks both drive these functions, so "regenerate the
// figure" is one call.
package exp

import (
	"repro/internal/altsched"
	"repro/internal/core"
	"repro/internal/edf"
	"repro/internal/stats"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// Experiment couples an identifier with its runner, for enumeration by
// the CLI.
type Experiment struct {
	ID   string // short selector, e.g. "fig18.5"
	Desc string
	Run  func() *stats.Table
}

// All returns every experiment in catalogue order.
func All() []Experiment {
	return []Experiment{
		{"fig18.5", "E1: accepted vs requested channels, SDPS vs ADPS (Fig. 18.5)", Fig185},
		{"feas", "E2: utilization-only admission is unsound for d < P", FeasibilityModes},
		{"delay", "E3: simulated worst-case delay vs guarantee (Eq. 18.1)", DelayGuarantee},
		{"shaping", "E4: release-guard shaping ablation", ShapingAblation},
		{"coexist", "E5: RT guarantees under background best-effort load", Coexistence},
		{"multiswitch", "E6: multi-switch fabrics, H-SDPS vs H-ADPS (future work)", MultiSwitch},
		{"altsched", "E7: EDF vs DM vs FIFO per-link capacity (future work)", AltSched},
		{"dsweep", "E8: acceptance vs deadline tightness", DeadlineSweep},
		{"dpssearch", "E9: DPS fallback search ablation", DPSSearch},
		{"fabricdelay", "E10: fabric simulation — multi-hop delay guarantee", FabricDelay},
		{"discipline", "E11: EDF-admitted workload under EDF/DM/FIFO dispatchers", DisciplineMismatch},
	}
}

// acceptedAtCheckpoints feeds the request sequence to a fresh controller
// and records the cumulative accepted count at each checkpoint index.
func acceptedAtCheckpoints(dps core.DPS, requests []core.ChannelSpec, checkpoints []int) []int {
	ctrl := core.NewController(core.Config{DPS: dps})
	out := make([]int, 0, len(checkpoints))
	next := 0
	accepted := 0
	for k, spec := range requests {
		if _, err := ctrl.Request(spec); err == nil {
			accepted++
		}
		for next < len(checkpoints) && k+1 == checkpoints[next] {
			out = append(out, accepted)
			next++
		}
	}
	for next < len(checkpoints) {
		out = append(out, accepted)
		next++
	}
	return out
}

// Fig185 reproduces Figure 18.5: the number of accepted channels as a
// function of the number of requested channels, for SDPS and ADPS, on the
// 10-master/50-slave workload with uniform channels C=3, P=100, d=40.
//
// Paper shape: SDPS plateaus at 60 (six channels per master uplink);
// ADPS keeps climbing to ≈110.
func Fig185() *stats.Table {
	checkpoints := make([]int, 0, 10)
	for r := 20; r <= 200; r += 20 {
		checkpoints = append(checkpoints, r)
	}
	requests := traffic.PaperLayout.Requests(200, traffic.PaperSpec)
	sdps := acceptedAtCheckpoints(core.SDPS{}, requests, checkpoints)
	adps := acceptedAtCheckpoints(core.ADPS{}, requests, checkpoints)

	tb := stats.NewTable(
		"Fig. 18.5 — accepted channels vs requested (10 masters, 50 slaves, C=3 P=100 d=40)",
		"requested", "accepted(SDPS)", "accepted(ADPS)")
	for i, r := range checkpoints {
		tb.AddRowf(r, sdps[i], adps[i])
	}
	return tb
}

// DeadlineSweep (E8) repeats the Fig. 18.5 acceptance comparison across
// deadline tightness: the ADPS advantage is largest for mid-range
// deadlines and vanishes when deadlines are so tight (d = 2C) that no
// partition has slack, or so loose that utilization binds first.
func DeadlineSweep() *stats.Table {
	tb := stats.NewTable(
		"E8 — accepted of 200 requested vs deadline d (C=3, P=100)",
		"d", "accepted(SDPS)", "accepted(ADPS)", "ADPS/SDPS")
	for _, d := range []int64{6, 8, 10, 15, 20, 30, 40, 60, 80, 100} {
		params := traffic.PaperSpec
		params.D = d
		requests := traffic.PaperLayout.Requests(200, params)
		s := acceptedAtCheckpoints(core.SDPS{}, requests, []int{200})[0]
		a := acceptedAtCheckpoints(core.ADPS{}, requests, []int{200})[0]
		ratio := 0.0
		if s > 0 {
			ratio = float64(a) / float64(s)
		}
		tb.AddRowf(d, s, a, ratio)
	}
	return tb
}

// MultiSwitch (E6) extends the acceptance experiment to line fabrics of
// 1..4 switches with the masters homed on the first switch and the slaves
// on the last, so every channel crosses every trunk. H-ADPS shifts
// deadline budget onto the loaded trunks and dominates H-SDPS.
func MultiSwitch() *stats.Table {
	tb := stats.NewTable(
		"E6 — accepted of 150 requested on line fabrics (C=3, P=300, d=60)",
		"switches", "hops", "accepted(H-SDPS)", "accepted(H-ADPS)")
	for _, k := range []int{1, 2, 3, 4} {
		buildCtrl := func(dps topo.HDPS) *topo.Controller {
			tp := topo.Line(k)
			for m := 0; m < 10; m++ {
				if err := tp.AttachNode(core.NodeID(m), 0); err != nil {
					panic(err)
				}
			}
			for s := 0; s < 50; s++ {
				if err := tp.AttachNode(core.NodeID(100+s), topo.SwitchID(k-1)); err != nil {
					panic(err)
				}
			}
			return topo.NewController(tp, topo.Config{DPS: dps})
		}
		count := func(dps topo.HDPS) int {
			ctrl := buildCtrl(dps)
			accepted := 0
			for q := 0; q < 150; q++ {
				spec := core.ChannelSpec{
					Src: core.NodeID(q % 10),
					Dst: core.NodeID(100 + q%50),
					C:   3, P: 300, D: 60,
				}
				if _, err := ctrl.Request(spec); err == nil {
					accepted++
				}
			}
			return accepted
		}
		hops := k + 1
		tb.AddRowf(k, hops, count(topo.HSDPS{}), count(topo.HADPS{}))
	}
	return tb
}

// capacityWithBase counts how many copies of add fit on a link already
// carrying base under the given analysis.
func capacityWithBase(a altsched.Analysis, base []edf.Task, add edf.Task, max int) int {
	tasks := append([]edf.Task(nil), base...)
	for n := 1; n <= max; n++ {
		tasks = append(tasks, add)
		if !a.Feasible(tasks) {
			return n - 1
		}
	}
	return max
}

// AltSched (E7) compares per-link admission capacity under the three
// analyses. For identical tasks the three coincide; mixed deadline
// classes separate them: FIFO collapses as soon as one tight deadline
// shares the link, and DM loses to EDF on high-utilization harmonic
// mixes (EDF is optimal on one processor).
func AltSched() *stats.Table {
	tb := stats.NewTable(
		"E7 — channels admitted on one link under EDF / DM / FIFO analyses",
		"scenario", "EDF", "DM", "FIFO")
	rows := []struct {
		name string
		base []edf.Task
		add  edf.Task
	}{
		{"identical C=3 P=100 d=20", nil, edf.Task{C: 3, P: 100, D: 20}},
		{"identical C=3 P=100 d=40", nil, edf.Task{C: 3, P: 100, D: 40}},
		{
			"tight task (C=2 d=6) present, add C=3 P=100 d=40",
			[]edf.Task{{C: 2, P: 100, D: 6}},
			edf.Task{C: 3, P: 100, D: 40},
		},
		{
			"harmonic base (C=2 P=4 d=4), add C=3 P=6 d=6",
			[]edf.Task{{C: 2, P: 4, D: 4}},
			edf.Task{C: 3, P: 6, D: 6},
		},
	}
	for _, r := range rows {
		tb.AddRowf(r.name,
			capacityWithBase(altsched.EDF{}, r.base, r.add, 200),
			capacityWithBase(altsched.DM{}, r.base, r.add, 200),
			capacityWithBase(altsched.FIFO{}, r.base, r.add, 200),
		)
	}
	return tb
}

// DPSSearch (E9) quantifies the DPS-as-search-space idea: a DPS is one
// point in the paper's "vector field" of deadline splits, so before
// rejecting a request the switch can try several points. Columns compare
// single-scheme admission against a search over {primary + fallbacks}
// on the Fig. 18.5 workload and a harder bidirectional variant (forward
// master→slave plus reverse slave→master channels), where no single
// static weighting fits both directions.
func DPSSearch() *stats.Table {
	searched := []core.DPS{ // the primary, then the fallbacks in order
		core.ADPS{},
		core.SDPS{},
		core.FixedDPS{UpNum: 2, UpDen: 3},
		core.FixedDPS{UpNum: 1, UpDen: 3},
		core.FixedDPS{UpNum: 5, UpDen: 6},
	}
	// run requests every spec under the first scheme, searching the rest
	// on a rejection, and returns how many were accepted and how many
	// link tests it ran.
	run := func(requests []core.ChannelSpec, schemes ...core.DPS) (accepted, checked int) {
		s := newSearch(schemes...)
		for _, spec := range requests {
			if _, err := s.Request(spec); err == nil {
				accepted++
			}
		}
		return accepted, s.ctrl.Stats().LinksChecked
	}

	forward := traffic.PaperLayout.Requests(200, traffic.PaperSpec)
	bidi := make([]core.ChannelSpec, 0, 200)
	fwd := traffic.PaperLayout.Requests(100, traffic.PaperSpec)
	rev := traffic.PaperLayout.ReverseRequests(100, traffic.PaperSpec)
	for i := 0; i < 100; i++ {
		bidi = append(bidi, fwd[i], rev[i])
	}

	tb := stats.NewTable(
		"E9 — DPS fallback search (accepted of 200 requested)",
		"workload", "SDPS", "ADPS", "ADPS+search", "tests run (ADPS)", "tests run (search)")
	for _, w := range []struct {
		name string
		reqs []core.ChannelSpec
	}{
		{"master→slave (Fig 18.5)", forward},
		{"bidirectional master↔slave", bidi},
	} {
		sdps, _ := run(w.reqs, core.SDPS{})
		adps, adpsChecked := run(w.reqs, core.ADPS{})
		found, foundChecked := run(w.reqs, searched...)
		tb.AddRowf(w.name, sdps, adps, found, adpsChecked, foundChecked)
	}
	return tb
}

// search is E9's controller. It is itself the controller's DPS: the
// scheme in force, which a rejected request switches to each fallback in
// turn for a retry.
type search struct {
	core.DPS
	ctrl    *core.Controller
	schemes []core.DPS // the primary, then the fallbacks in order
}

func newSearch(schemes ...core.DPS) *search {
	s := &search{DPS: schemes[0], schemes: schemes}
	s.ctrl = core.NewController(core.Config{DPS: s})
	return s
}

// Request admits spec under the primary scheme and, if it is rejected,
// retries it under each fallback in turn; the first scheme that admits
// it commits. A rejected request leaves the committed state
// bit-identical, so every retry decides against the state the primary
// saw. When every scheme fails, the primary's rejection is returned.
// Between requests the primary is in force, so later decisions
// (releases included) repartition with it.
func (s *search) Request(spec core.ChannelSpec) (*core.Channel, error) {
	defer func() { s.DPS = s.schemes[0] }()
	var first error
	for _, d := range s.schemes {
		s.DPS = d
		ch, err := s.ctrl.Request(spec)
		if err == nil {
			return ch, nil
		}
		if first == nil {
			first = err
		}
	}
	return nil, first
}

// passFail renders a guarantee-compliance verdict cell.
func passFail(ok bool) string {
	if ok {
		return "PASS"
	}
	return "FAIL"
}
