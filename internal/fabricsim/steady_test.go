package fabricsim

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/topo"
)

// churnLine is the fabric-churn standing population: a 4-switch line
// with 100 end-nodes a side (west ones alternating over switches 0 and
// 1, east ones over 2 and 3), 250 east-bound and 250 west-bound
// channels under H-ADPS, each started at a random phase below 400.
func churnLine(tb testing.TB) *Sim {
	tb.Helper()
	const perSide, perDir, east = 100, 250, 1000
	tp := topo.Line(4)
	for i := 0; i < perSide; i++ {
		if err := tp.AttachNode(core.NodeID(1+i), topo.SwitchID(i%2)); err != nil {
			tb.Fatal(err)
		}
		if err := tp.AttachNode(core.NodeID(east+1+i), topo.SwitchID(2+i%2)); err != nil {
			tb.Fatal(err)
		}
	}
	ctrl := topo.NewController(tp, topo.Config{DPS: topo.HADPS{}})
	rng := rand.New(rand.NewSource(1))
	for _, base := range [][2]int{{0, east}, {east, 0}} {
		specs := make([]core.ChannelSpec, perDir)
		for i := range specs {
			specs[i] = core.ChannelSpec{
				Src: core.NodeID(base[0] + 1 + rng.Intn(perSide)),
				Dst: core.NodeID(base[1] + 1 + rng.Intn(perSide)),
				C:   int64(1 + rng.Intn(2)),
				P:   []int64{400, 450, 500}[rng.Intn(3)],
				D:   []int64{4000, 5000, 6000}[rng.Intn(3)],
			}
		}
		if _, err := ctrl.RequestAll(specs); err != nil {
			tb.Fatal(err)
		}
	}
	offsets := map[core.ChannelID]int64{}
	for _, ch := range ctrl.State().Channels() {
		offsets[ch.ID] = rng.Int63n(400)
	}
	s, err := New(ctrl.State(), offsets, Config{})
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

// TestSteadyStateAllocatesNothing pins the data plane's allocation
// count: once the population runs, a 1000-slot block allocates nothing
// per delivered frame — no event, queue entry, in-flight frame or
// shaper hold reaches the heap. Each channel's delay reservoir is
// filled first, so its one-time growth does not count.
func TestSteadyStateAllocatesNothing(t *testing.T) {
	s := churnLine(t)
	s.Run(10000)
	for _, id := range s.ChannelIDs() {
		d := s.Channel(id).Delays
		for d.Count() < 4096 {
			d.Observe(0)
		}
	}
	before, _, _ := s.Totals()
	allocs := testing.AllocsPerRun(5, func() { s.Run(s.Now() + 1000) })
	after, misses, _ := s.Totals()
	// AllocsPerRun runs the block once to warm up, then 5 times.
	if frames := (after - before) / 6; frames < 1000 || misses != 0 {
		t.Fatalf("%d frames a block, %d misses: the population is not running", frames, misses)
	}
	if allocs != 0 {
		t.Errorf("a 1000-slot block allocates %v times, want 0", allocs)
	}
}

// BenchmarkSteadyState times 1000-slot blocks of the running
// fabric-churn population.
func BenchmarkSteadyState(b *testing.B) {
	s := churnLine(b)
	s.Run(10000)
	before, _, _ := s.Totals()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Run(s.Now() + 1000)
	}
	after, _, _ := s.Totals()
	b.ReportMetric(float64(after-before)/float64(b.N), "frames/op")
}
