package netsim

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/traffic"
)

// paperStar is the Fig. 18.5 star under ADPS: the 200 requests of the
// paper's master-slave pattern offered at once, every admitted channel
// started at a random phase.
func paperStar(tb testing.TB) *Network {
	tb.Helper()
	n := New(Config{DPS: core.ADPS{}})
	for _, id := range traffic.PaperLayout.Nodes() {
		n.MustAddNode(id)
	}
	specs := traffic.PaperLayout.Requests(200, traffic.PaperSpec)
	ids, _ := n.ApplyEach(nil, core.Unicast(specs))
	rng := rand.New(rand.NewSource(1))
	for i, id := range ids {
		if id == 0 {
			continue
		}
		if err := n.Node(specs[i].Src).StartTraffic(id, rng.Int63n(specs[i].P)); err != nil {
			tb.Fatal(err)
		}
	}
	return n
}

// TestSteadyStateAllocatesOnlyFrames pins the star's allocation count:
// once the population runs, a 1000-slot block allocates exactly one
// object per RT frame, the sender's wire encoding (frame.EncodeData).
// The receiver decodes in place; events, queue entries, frames on the
// wire and shaper holds allocate nothing. Each channel's delay reservoir is
// filled first, so its one-time growth does not count.
func TestSteadyStateAllocatesOnlyFrames(t *testing.T) {
	n := paperStar(t)
	n.Run(2000)
	for _, ch := range n.Controller().State().Channels() {
		d := n.ChannelMetrics(ch.ID).Delays
		for d.Count() < 4096 {
			d.Observe(0)
		}
	}
	before := n.Report().TotalDelivered()
	allocs := testing.AllocsPerRun(5, func() { n.Run(n.Engine().Now() + 1000) })
	rep := n.Report()
	// AllocsPerRun runs the block once to warm up, then 5 times.
	frames := float64(rep.TotalDelivered()-before) / 6
	if frames < 1000 || rep.TotalMisses() != 0 {
		t.Fatalf("%v frames a block, %d misses: the population is not running", frames, rep.TotalMisses())
	}
	if allocs != frames {
		t.Errorf("a 1000-slot block allocates %v times for %v frames, want one per frame", allocs, frames)
	}
}

// BenchmarkSteadyState times 1000-slot blocks of the running Fig. 18.5
// star.
func BenchmarkSteadyState(b *testing.B) {
	n := paperStar(b)
	n.Run(2000)
	before := n.Report().TotalDelivered()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Run(n.Engine().Now() + 1000)
	}
	b.ReportMetric(float64(n.Report().TotalDelivered()-before)/float64(b.N), "frames/op")
}
