// Package exp is the experiment harness: one function per table/figure of
// the paper's evaluation (plus the supporting and future-work experiments
// catalogued by rtexp -list), each returning a printable table with the
// same rows/series the paper reports. `rtexp paper` drives these
// functions, so "regenerate the figure" is one call.
//
// The acceptance tables (E1 Fig. 18.5, E6, E8) are scenario streams
// that one driver plays on any scenario.Target, so Fig185On,
// MultiSwitchOn and DeadlineSweepOn reproduce them against rtetherd
// too. The simulation tables (E2–E5, E11) keep their drivers: they
// count delivered frames. So does E10, whose one-switch rows a scenario
// run would put on the star simulator's wire handshake, and E9, whose
// retry under fallback schemes no Target offers.
package exp

import (
	"context"

	"repro/internal/altsched"
	"repro/internal/core"
	"repro/internal/edf"
	"repro/internal/scenario"
	"repro/internal/stats"
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

// Open hosts a fresh network as s describes it and returns the target
// its admission stream plays on: InProcess, or a *client.Client of a
// daemon serving s.BuildNetwork.
type Open func(s *scenario.Scenario) (scenario.Target, error)

// InProcess hosts the network in this process, deciding as Replay does.
func InProcess(s *scenario.Scenario) (scenario.Target, error) {
	net, err := s.BuildNetwork(0)
	return scenario.NewTarget(net), err
}

// lineScenario is the acceptance workload: n optional channels of
// params in the paper layout's round-robin master→slave order, on a
// line of k switches with the masters on the first and the slaves on
// the last; k = 1 is the paper's star. Only admission plays, so one
// slot is horizon enough.
func lineScenario(params core.ChannelSpec, n, k int) *scenario.Scenario {
	l := traffic.PaperLayout
	top := &scenario.TopologyDef{Switches: []uint16{0}}
	for sw := uint16(1); sw < uint16(k); sw++ {
		top.Switches = append(top.Switches, sw)
		top.Trunks = append(top.Trunks, [2]uint16{sw - 1, sw})
	}
	for i, id := range l.Nodes() {
		at := scenario.AttachDef{Node: uint16(id)}
		if i >= l.Masters {
			at.Switch = uint16(k - 1)
		}
		top.Attachments = append(top.Attachments, at)
	}
	s := &scenario.Scenario{Slots: 1, Topology: top}
	for _, r := range l.Requests(n, params) {
		s.Channels = append(s.Channels, scenario.ChannelDef{
			Src: uint16(r.Src), Dst: uint16(r.Dst), C: r.C, P: r.P, D: r.D, Optional: true})
	}
	return s
}

// acceptCounts is the one driver of the acceptance tables, in process
// and against a daemon alike. It plays s's admission stream one step at
// a time under SDPS and under ADPS (H-SDPS and H-ADPS on a fabric), each
// on a fresh target from open, and returns both running counts of
// accepted steps: counts[scheme][i] counts the accepted among the first
// i steps.
func acceptCounts(open Open, s *scenario.Scenario) ([2][]int, error) {
	var counts [2][]int
	steps, err := s.Steps()
	if err != nil {
		return counts, err
	}
	for i, dps := range []string{"sdps", "adps"} {
		s.DPS = dps
		target, err := open(s)
		if err != nil {
			return counts, err
		}
		p := scenario.NewPlayer(target)
		counts[i] = make([]int, len(steps)+1)
		for j, st := range steps {
			out, err := p.Play(context.Background(), st)
			if err != nil {
				return counts, err
			}
			counts[i][j+1] = counts[i][j]
			if out.Accepted {
				counts[i][j+1]++
			}
		}
	}
	return counts, nil
}

// must unwraps a table played in process, where the paper's workload
// cannot fail.
func must(tb *stats.Table, err error) *stats.Table {
	if err != nil {
		panic(err)
	}
	return tb
}

// Fig185 reproduces Figure 18.5: the number of accepted channels as a
// function of the number of requested channels, for SDPS and ADPS, on the
// 10-master/50-slave workload with uniform channels C=3, P=100, d=40.
//
// Paper shape: SDPS plateaus at 60 (six channels per master uplink);
// ADPS keeps climbing to ≈110.
func Fig185() *stats.Table { return must(Fig185On(InProcess)) }

// Fig185On is Fig185 played on the targets open hosts.
func Fig185On(open Open) (*stats.Table, error) {
	c, err := acceptCounts(open, lineScenario(traffic.PaperSpec, 200, 1))
	if err != nil {
		return nil, err
	}
	tb := stats.NewTable(
		"Fig. 18.5 — accepted channels vs requested (10 masters, 50 slaves, C=3 P=100 d=40)",
		"requested", "accepted(SDPS)", "accepted(ADPS)")
	for r := 20; r <= 200; r += 20 {
		tb.AddRowf(r, c[0][r], c[1][r])
	}
	return tb, nil
}

// DeadlineSweep (E8) repeats the Fig. 18.5 acceptance comparison across
// deadline tightness: the ADPS advantage is largest for mid-range
// deadlines and vanishes when deadlines are so tight (d = 2C) that no
// partition has slack, or so loose that utilization binds first.
func DeadlineSweep() *stats.Table { return must(DeadlineSweepOn(InProcess)) }

// DeadlineSweepOn is DeadlineSweep played on the targets open hosts.
func DeadlineSweepOn(open Open) (*stats.Table, error) {
	tb := stats.NewTable(
		"E8 — accepted of 200 requested vs deadline d (C=3, P=100)",
		"d", "accepted(SDPS)", "accepted(ADPS)", "ADPS/SDPS")
	for _, d := range []int64{6, 8, 10, 15, 20, 30, 40, 60, 80, 100} {
		c, err := acceptCounts(open, lineScenario(core.ChannelSpec{C: 3, P: 100, D: d}, 200, 1))
		if err != nil {
			return nil, err
		}
		// d >= 2C, so SDPS admits at least one channel per master.
		s, a := c[0][200], c[1][200]
		tb.AddRowf(d, s, a, float64(a)/float64(s))
	}
	return tb, nil
}

// MultiSwitch (E6) extends the acceptance experiment to line fabrics of
// 1..4 switches with the masters homed on the first switch and the slaves
// on the last, so every channel crosses every trunk. H-ADPS shifts
// deadline budget onto the loaded trunks and dominates H-SDPS.
func MultiSwitch() *stats.Table { return must(MultiSwitchOn(InProcess)) }

// MultiSwitchOn is MultiSwitch played on the targets open hosts.
func MultiSwitchOn(open Open) (*stats.Table, error) {
	tb := stats.NewTable(
		"E6 — accepted of 150 requested on line fabrics (C=3, P=300, d=60)",
		"switches", "hops", "accepted(H-SDPS)", "accepted(H-ADPS)")
	for _, k := range []int{1, 2, 3, 4} {
		c, err := acceptCounts(open, lineScenario(core.ChannelSpec{C: 3, P: 300, D: 60}, 150, k))
		if err != nil {
			return nil, err
		}
		tb.AddRowf(k, k+1, c[0][150], c[1][150])
	}
	return tb, nil
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
	rev := traffic.PaperLayout.ReverseRequests(100, traffic.PaperSpec)
	for i := 0; i < 100; i++ {
		bidi = append(bidi, forward[i], rev[i])
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
