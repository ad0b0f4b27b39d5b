package topo

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/edf"
	"repro/internal/traffic"
)

// accountant is what the decision-accounting golden reads of a
// controller: the kernel's deterministic work counters.
type accountant interface {
	Stats() core.Stats
	SweepSkips() int
}

// ledger records one line per admission decision: the operation, its
// verdict (the rejecting link and the rejection's Result when refused)
// and how far the decision moved LinksChecked, SweepSkips and
// Repartitions.
type ledger struct {
	b                       strings.Builder
	c                       accountant
	checked, skips, reparts int
	step                    int
}

func newLedger(name string, c accountant) *ledger {
	l := &ledger{c: c}
	l.b.WriteString("# " + name + "\n")
	return l
}

// note records the decision that just returned err.
func (l *ledger) note(op string, err error) {
	st := l.c.Stats()
	skips := l.c.SweepSkips()
	fmt.Fprintf(&l.b, "%d %s checked+%d skips+%d reparts+%d ", l.step, op,
		st.LinksChecked-l.checked, skips-l.skips, st.Repartitions-l.reparts)
	l.checked, l.skips, l.reparts = st.LinksChecked, skips, st.Repartitions
	l.step++
	var star *core.RejectionError
	var fabric *RejectionError
	switch {
	case err == nil:
		l.b.WriteString("ok\n")
	case errors.As(err, &star):
		fmt.Fprintf(&l.b, "reject %v %s\n", star.Link, resultLine(star.Result))
	case errors.As(err, &fabric):
		fmt.Fprintf(&l.b, "reject %v %s\n", fabric.Edge, resultLine(fabric.Result))
	default:
		fmt.Fprintf(&l.b, "error %v\n", err)
	}
}

// resultLine prints every field of a rejection's Result, the utilization
// in full precision.
func resultLine(r edf.Result) string {
	return fmt.Sprintf("%v U=%v bp=%d t=%d h=%d slack=%d checked=%d short=%v",
		r.Verdict, r.Utilization, r.BusyPeriod, r.ViolationAt, r.DemandAt, r.MinSlack, r.Checked, r.ShortCircuit)
}

// lineFabric is the 4-switch line of the fabric benchmarks: west nodes
// 1..perSide on switches 0 and 1, east nodes 101..100+perSide on
// switches 2 and 3.
func lineFabric(t testing.TB, perSide int) *Topology {
	tp := Line(4)
	for i := 0; i < perSide; i++ {
		if err := tp.AttachNode(core.NodeID(1+i), SwitchID(i%2)); err != nil {
			t.Fatal(err)
		}
		if err := tp.AttachNode(core.NodeID(101+i), SwitchID(2+i%2)); err != nil {
			t.Fatal(err)
		}
	}
	return tp
}

// bulkChurn replays provision-bulk's sequential phase at a small size:
// the standing population in one batch, then release→establish pairs of
// unit channels, every 16th pair followed by a request for a whole link
// (C = P), which the utilization test refuses.
func bulkChurn(l *ledger, rng *rand.Rand, live, pairs int, spec func() core.ChannelSpec,
	requestAll func([]core.ChannelSpec) ([]core.ChannelID, error),
	request func(core.ChannelSpec) (core.ChannelID, error), release func(core.ChannelID) error) {
	specs := make([]core.ChannelSpec, live)
	for i := range specs {
		specs[i] = spec()
	}
	ids, err := requestAll(specs)
	l.note("establish-all", err)
	for i := 0; i < pairs; i++ {
		j := rng.Intn(len(ids))
		l.note("release", release(ids[j]))
		id, err := request(spec())
		l.note("establish", err)
		ids[j] = id
		if i%16 == 15 {
			s := spec()
			s.C, s.D = s.P, 8*s.P
			_, err := request(s)
			l.note("establish-whole-link", err)
		}
	}
}

// decisionAccounting runs the four golden workloads and returns their
// ledgers.
func decisionAccounting(t testing.TB) string {
	var out strings.Builder

	// The bulk star: ADPS, about 100 channels per link, as at 10k
	// channels on 100 nodes a side.
	{
		c := core.NewController(core.Config{DPS: core.ADPS{}})
		l := newLedger("bulk star, ADPS", c)
		rng := rand.New(rand.NewSource(3))
		bulkChurn(l, rng, 1000, 160, func() core.ChannelSpec {
			return core.ChannelSpec{Src: core.NodeID(1 + rng.Intn(10)), Dst: core.NodeID(101 + rng.Intn(10)), C: 1, P: 10000, D: 2000}
		}, func(specs []core.ChannelSpec) ([]core.ChannelID, error) {
			chs, err := c.RequestAll(specs)
			ids := make([]core.ChannelID, len(chs))
			for i, ch := range chs {
				ids[i] = ch.ID
			}
			return ids, err
		}, func(s core.ChannelSpec) (core.ChannelID, error) {
			ch, err := c.Request(s)
			if err != nil {
				return 0, err
			}
			return ch.ID, nil
		}, c.Release)
		out.WriteString(l.b.String())
	}

	// The bulk line: H-SDPS, the sw1→sw2 trunk carrying every channel
	// with sum C equal to its shortest hop deadline, so it is walked.
	{
		c := NewController(lineFabric(t, 20), Config{DPS: HSDPS{}})
		l := newLedger("bulk line, H-SDPS", c)
		rng := rand.New(rand.NewSource(5))
		bulkChurn(l, rng, 500, 160, func() core.ChannelSpec {
			return core.ChannelSpec{Src: core.NodeID(1 + rng.Intn(20)), Dst: core.NodeID(101 + rng.Intn(20)), C: 1, P: 5000, D: 2500}
		}, func(specs []core.ChannelSpec) ([]core.ChannelID, error) {
			chs, err := c.RequestAll(specs)
			ids := make([]core.ChannelID, len(chs))
			for i, ch := range chs {
				ids[i] = ch.ID
			}
			return ids, err
		}, func(s core.ChannelSpec) (core.ChannelID, error) {
			ch, err := c.Request(s)
			if err != nil {
				return 0, err
			}
			return ch.ID, nil
		}, c.Release)
		out.WriteString(l.b.String())
	}

	// Fig. 18.5 under ADPS, past the point where it saturates (≈ 110 of
	// 200 requests accepted).
	{
		c := core.NewController(core.Config{DPS: core.ADPS{}})
		l := newLedger("Fig. 18.5, ADPS", c)
		for _, s := range traffic.PaperLayout.Requests(200, traffic.PaperSpec) {
			_, err := c.Request(s)
			l.note("establish", err)
		}
		out.WriteString(l.b.String())
	}

	// An H-ADPS line churned into rejections: fabric-churn's kernel load
	// (see BenchmarkHADPSChurn) over a few hundred decisions.
	{
		const perSide, preload, lo, hi = 100, 250, 60, 90
		c := NewController(lineFabric(t, perSide), Config{DPS: HADPS{}})
		l := newLedger("H-ADPS line churn", c)
		rng := rand.New(rand.NewSource(7))
		type side struct {
			src, dst int
			slots    []core.ChannelID
		}
		sides := []*side{{src: 0, dst: 100}, {src: 100, dst: 0}}
		node := func(base int) core.NodeID { return core.NodeID(base + 1 + rng.Intn(perSide)) }
		req := func(s *side) Req {
			r := Req{Spec: core.ChannelSpec{
				Src: node(s.src), Dst: node(s.dst),
				C: int64(1 + rng.Intn(2)),
				P: []int64{400, 450, 500}[rng.Intn(3)],
				D: []int64{4000, 5000, 6000}[rng.Intn(3)],
			}}
			if rng.Intn(8) == 0 {
				seen := map[core.NodeID]bool{}
				for n := 3 + rng.Intn(3); len(r.Sinks) < n; {
					if s := node(s.dst); !seen[s] {
						seen[s] = true
						r.Sinks = append(r.Sinks, s)
					}
				}
				r.Spec.Dst = r.Sinks[0]
			}
			return r
		}
		for _, s := range sides {
			for i := 0; i < preload; i++ {
				_, err := c.Admit([]Req{req(s)})
				l.note("establish", err)
			}
		}
		for i := 0; i < 400; i++ {
			s := sides[i%2]
			for {
				if n := len(s.slots); n < lo || (n < hi && rng.Intn(2) == 0) {
					var id core.ChannelID
					chs, err := c.Admit([]Req{req(s)})
					if err == nil {
						id = chs[0].ID
					}
					l.note("establish", err)
					s.slots = append(s.slots, id)
					break
				}
				j := rng.Intn(len(s.slots))
				id := s.slots[j]
				s.slots = append(s.slots[:j], s.slots[j+1:]...)
				if id == 0 {
					continue
				}
				l.note("release", c.Release(id))
				break
			}
		}
		out.WriteString(l.b.String())
	}
	return out.String()
}

// TestDecisionAccountingGolden pins, decision by decision, the verdict,
// the rejecting link with its Result, and the LinksChecked, SweepSkips
// and Repartitions each decision adds, on four workloads: the bulk star
// and the bulk line churned with whole-link requests, Fig. 18.5 under
// ADPS past saturation, and an H-ADPS line churned into rejections. Any
// change to the verification sweep's order, its skips or its summaries
// that moves one of these numbers shows here.
func TestDecisionAccountingGolden(t *testing.T) {
	got := decisionAccounting(t)
	want, err := os.ReadFile("testdata/decisions.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < min(len(g), len(w)); i++ {
		if g[i] != w[i] {
			t.Fatalf("line %d differs from testdata/decisions.golden:\ngot:  %s\nwant: %s", i+1, g[i], w[i])
		}
	}
	t.Fatalf("decision ledger has %d lines, testdata/decisions.golden %d", len(g), len(w))
}

// TestBulkLineEstablishWalksOnce pins the verification work of the bulk
// line's churn with the kernel's two exact counters: every establish
// walks one link's demand, the sw1→sw2 trunk that carries every channel
// with sum C equal to its shortest hop deadline, and rescans no summary —
// the trunk's shortest deadline is held by many channels, so a release
// never loosens it — while a release (H-SDPS moves no other channel)
// verifies nothing.
func TestBulkLineEstablishWalksOnce(t *testing.T) {
	c := NewController(lineFabric(t, 20), Config{DPS: HSDPS{}})
	rng := rand.New(rand.NewSource(5))
	spec := func() core.ChannelSpec {
		return core.ChannelSpec{Src: core.NodeID(1 + rng.Intn(20)), Dst: core.NodeID(101 + rng.Intn(20)), C: 1, P: 5000, D: 2500}
	}
	specs := make([]core.ChannelSpec, 500)
	for i := range specs {
		specs[i] = spec()
	}
	chs, err := c.RequestAll(specs)
	if err != nil {
		t.Fatal(err)
	}
	eng := c.p.Eng
	for i := 0; i < 200; i++ {
		j := rng.Intn(len(chs))
		walks, rescans := eng.Walks(), eng.Rescans()
		if err := c.Release(chs[j].ID); err != nil {
			t.Fatal(err)
		}
		if eng.Walks() != walks || eng.Rescans() != rescans {
			t.Fatalf("release %d: %d walks and %d rescans, want none", i, eng.Walks()-walks, eng.Rescans()-rescans)
		}
		if chs[j], err = c.Request(spec()); err != nil {
			t.Fatal(err)
		}
		if w, r := eng.Walks()-walks, eng.Rescans()-rescans; w != 1 || r != 0 {
			t.Fatalf("establish %d: %d walks and %d rescans, want 1 and 0", i, w, r)
		}
	}
}

// TestBulkLineWalkReadsClasses pins what the bulk line's establish walk
// reads: the trunk's deadline classes, not its tasks. Every establish
// walks the trunk that carries every channel (see
// TestBulkLineEstablishWalksOnce), whose 500 tasks fall into a few (D, P)
// pairs under H-SDPS; the walk reads at most one entry per pair, and no
// release or establish leaves the trunk's class table stale, so no walk
// rebuilds it from the tasks.
func TestBulkLineWalkReadsClasses(t *testing.T) {
	c := NewController(lineFabric(t, 20), Config{DPS: HSDPS{}})
	rng := rand.New(rand.NewSource(5))
	spec := func() core.ChannelSpec {
		return core.ChannelSpec{Src: core.NodeID(1 + rng.Intn(20)), Dst: core.NodeID(101 + rng.Intn(20)), C: 1, P: 5000, D: 2500}
	}
	specs := make([]core.ChannelSpec, 500)
	for i := range specs {
		specs[i] = spec()
	}
	chs, err := c.RequestAll(specs)
	if err != nil {
		t.Fatal(err)
	}
	eng := c.p.Eng
	st := eng.State()
	var trunk Edge
	for _, l := range st.Links() {
		if st.LinkLoad(l) == len(chs) {
			trunk = l
		}
	}
	for i := 0; i < 200; i++ {
		j := rng.Intn(len(chs))
		if err := c.Release(chs[j].ID); err != nil {
			t.Fatal(err)
		}
		walks, reads := eng.Walks(), eng.WalkReads()
		if chs[j], err = c.Request(spec()); err != nil {
			t.Fatal(err)
		}
		classes := map[[2]int64]bool{}
		for _, task := range st.TasksOn(trunk) {
			classes[[2]int64{task.D, task.P}] = true
		}
		if w, r := eng.Walks()-walks, eng.WalkReads()-reads; w != 1 || r == 0 || r > len(classes) {
			t.Fatalf("establish %d: %d walks reading %d entries; want 1 walk reading at most the trunk's %d classes of %d tasks",
				i, w, r, len(classes), st.LinkLoad(trunk))
		}
	}
}
