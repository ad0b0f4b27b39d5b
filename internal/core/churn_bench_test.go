package core

import (
	"math/rand"
	"testing"
)

// BenchmarkADPSStarChurn replays provision-bulk's star churn without the
// benchmark harness: a star with 100 source nodes (1..100) and 100 sink
// nodes (101..200), ADPS, 10k standing channels with C = 1, P = 10000,
// D = 2000, then one release of a random standing channel and one
// establish of a fresh one per iteration. Every establish is accepted.
//
//	go test -run '^$' -bench ADPSStarChurn -benchmem ./internal/core
func BenchmarkADPSStarChurn(b *testing.B) {
	const perSide, live = 100, 10000
	rng := rand.New(rand.NewSource(3))
	spec := func() ChannelSpec {
		return ChannelSpec{
			Src: NodeID(1 + rng.Intn(perSide)), Dst: NodeID(perSide + 1 + rng.Intn(perSide)),
			C: 1, P: 10000, D: 2000,
		}
	}
	specs := make([]ChannelSpec, live)
	for i := range specs {
		specs[i] = spec()
	}
	c := NewController(Config{DPS: ADPS{}})
	chs, err := c.RequestAll(specs)
	if err != nil {
		b.Fatal(err)
	}
	ids := make([]ChannelID, len(chs))
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
