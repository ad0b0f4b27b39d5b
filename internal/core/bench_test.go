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

// verifyHeavySpecs generates n feasible channels concentrated on 4
// sources and 4 sinks. Loads are exactly balanced (so ADPS splits every
// deadline in half) and the deadlines are C-spaced, which makes every
// demand checkpoint exactly tight: the batch is admissible, but only
// after a full-depth demand analysis of ~2500 checkpoints over ~2500
// tasks on each of the 8 links — the verification-bound regime.
func verifyHeavySpecs(n int) []ChannelSpec {
	specs := make([]ChannelSpec, n)
	for i := range specs {
		specs[i] = ChannelSpec{
			Src: NodeID(1 + i%4),
			Dst: NodeID(101 + i%4),
			C:   2, P: 5000, D: 8 + 4*int64(i/4),
		}
	}
	return specs
}

// BenchmarkAdmissionScaleVerifyBound measures a 10k-channel batch whose
// cost is the verification sweep's demand walks, not partitioning.
//
//	go test -run '^$' -bench AdmissionScaleVerifyBound ./internal/core
func BenchmarkAdmissionScaleVerifyBound(b *testing.B) {
	specs := verifyHeavySpecs(10000)
	for i := 0; i < b.N; i++ {
		c := NewController(Config{DPS: ADPS{}})
		chs, err := c.RequestAll(specs)
		if err != nil {
			b.Fatal(err)
		}
		if len(chs) != len(specs) {
			b.Fatalf("accepted %d of %d", len(chs), len(specs))
		}
	}
}
