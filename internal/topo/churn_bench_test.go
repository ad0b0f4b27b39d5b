package topo

import (
	"math/rand"
	"testing"

	"repro/internal/core"
)

// BenchmarkHADPSChurn replays the fabric-churn workload's kernel load
// without a daemon: a 4-switch line with 100 nodes per side (west nodes
// 1..100 on switches 0 and 1, east nodes 101..200 on switches 2 and 3),
// H-ADPS, 500 standing channels (250 each way) with D > P, then one
// establish (one in eight a 3-5 sink multicast) or release per
// iteration, with the churn population of each direction held in the
// band the shared trunks cannot all carry, so a steady share of
// establishes is refused. The population counts requested channels, as
// the fabric-churn generator does: a refused establish keeps its slot,
// and drawing that slot for release releases nothing, so the draw
// repeats. One iteration is one kernel decision.
//
//	go test -run '^$' -bench HADPSChurn -benchmem ./internal/topo
func BenchmarkHADPSChurn(b *testing.B) {
	const perSide, preload, lo, hi = 100, 250, 60, 90
	tp := Line(4)
	for i := 0; i < perSide; i++ {
		if err := tp.AttachNode(core.NodeID(1+i), SwitchID(i%2)); err != nil {
			b.Fatal(err)
		}
		if err := tp.AttachNode(core.NodeID(101+i), SwitchID(2+i%2)); err != nil {
			b.Fatal(err)
		}
	}
	c := NewController(tp, Config{DPS: HADPS{}})
	rng := rand.New(rand.NewSource(7))
	type side struct {
		src, dst int
		slots    []core.ChannelID // requested channels; 0 where refused
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
			if _, err := c.Admit([]Req{req(s)}); err != nil {
				b.Fatalf("preload %d: %v", i, err)
			}
		}
	}

	rejected := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := sides[i%2]
		for {
			if n := len(s.slots); n < lo || (n < hi && rng.Intn(2) == 0) {
				var id core.ChannelID
				if chs, err := c.Admit([]Req{req(s)}); err != nil {
					rejected++
				} else {
					id = chs[0].ID
				}
				s.slots = append(s.slots, id)
				break
			}
			j := rng.Intn(len(s.slots))
			id := s.slots[j]
			s.slots = append(s.slots[:j], s.slots[j+1:]...)
			if id == 0 {
				continue
			}
			if err := c.Release(id); err != nil {
				b.Fatal(err)
			}
			break
		}
	}
	b.ReportMetric(float64(rejected)/float64(b.N), "rejects/op")
}

// BenchmarkSDPSLineChurn replays the bulk-line half of provision-bulk
// without the benchmark harness: the same 4-switch line and node layout
// as HADPSChurn, H-SDPS, 10k standing west-to-east channels with C = 1,
// P = 100000, D = 50000, then one release of a random standing channel
// and one establish of a fresh one per iteration. Every establish is
// accepted; the switch 1 → 2 trunk carries every channel, and its busy period
// (sum C = 10000) reaches its shortest per-hop deadline, so it is the one
// link whose demand is walked.
//
//	go test -run '^$' -bench SDPSLineChurn -benchmem ./internal/topo
func BenchmarkSDPSLineChurn(b *testing.B) {
	const perSide, live = 100, 10000
	tp := Line(4)
	for i := 0; i < perSide; i++ {
		if err := tp.AttachNode(core.NodeID(1+i), SwitchID(i%2)); err != nil {
			b.Fatal(err)
		}
		if err := tp.AttachNode(core.NodeID(101+i), SwitchID(2+i%2)); err != nil {
			b.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(5))
	spec := func() core.ChannelSpec {
		return core.ChannelSpec{
			Src: core.NodeID(1 + rng.Intn(perSide)), Dst: core.NodeID(101 + rng.Intn(perSide)),
			C: 1, P: 100000, D: 50000,
		}
	}
	specs := make([]core.ChannelSpec, live)
	for i := range specs {
		specs[i] = spec()
	}
	c := NewController(tp, Config{DPS: HSDPS{}})
	chs, err := c.RequestAll(specs)
	if err != nil {
		b.Fatal(err)
	}
	ids := make([]core.ChannelID, len(chs))
	for i, ch := range chs {
		ids[i] = ch.ID
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := rng.Intn(len(ids))
		if err := c.Release(ids[j]); err != nil {
			b.Fatal(err)
		}
		ch, err := c.Request(spec())
		if err != nil {
			b.Fatal(err)
		}
		ids[j] = ch.ID
	}
}
