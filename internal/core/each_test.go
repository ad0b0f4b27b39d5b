package core

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// randomStarSpecs draws a mixed workload over nodes 1..n: mostly valid
// specs at pressure high enough to force rejections, plus a sprinkle of
// invalid ones (self-loops, D < 2C).
func randomStarSpecs(rng *rand.Rand, nodes, count int) []ChannelSpec {
	specs := make([]ChannelSpec, count)
	for i := range specs {
		src := NodeID(1 + rng.Intn(nodes))
		dst := NodeID(1 + rng.Intn(nodes))
		for dst == src {
			dst = NodeID(1 + rng.Intn(nodes))
		}
		c := int64(1 + rng.Intn(3))
		p := int64(10 + rng.Intn(90))
		d := 2*c + int64(rng.Intn(40))
		switch rng.Intn(20) {
		case 0:
			dst = src // invalid: self-loop
		case 1:
			d = 2*c - 1 // invalid: deadline below store-and-forward bound
		}
		specs[i] = ChannelSpec{Src: src, Dst: dst, C: c, P: p, D: d}
	}
	return specs
}

// stateFingerprint serializes the committed channels (ID, spec,
// partition) in establishment order.
func stateFingerprint(c *Controller) string {
	out := ""
	for _, ch := range c.State().Channels() {
		out += fmt.Sprintf("%d:%v:%d/%d;", ch.ID, ch.Spec, ch.Part.Up, ch.Part.Down)
	}
	return out
}

// TestRequestEachMatchesSequential replays the same merged workload
// through RequestEach and through sequential Request calls on a fresh
// controller, for both shipped schemes, and requires identical per-spec
// verdicts, rejection diagnostics and committed state — the
// decision-equivalence half of the coalescing acceptance criterion on
// the star topology. SDPS equivalence is exact by construction
// (state-independent per-channel partitions are monotone); the ADPS
// subtest pins the equivalence observed on this fixed seeded workload —
// load-adaptive schemes can in principle admit a merged group some
// sequential order would partially reject (admit.AdmitEach documents
// the contract), so if a kernel change fails only the ADPS subtest,
// inspect whether the new verdicts are a legitimate group decision
// rather than assuming a bug.
func TestRequestEachMatchesSequential(t *testing.T) {
	for _, tc := range []struct {
		name string
		dps  DPS
	}{
		{"SDPS", SDPS{}},
		{"ADPS", ADPS{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			specs := randomStarSpecs(rng, 8, 400)

			merged := NewController(Config{DPS: tc.dps})
			chs, errs := merged.AdmitEach(nil, Unicast(specs))

			seq := NewController(Config{DPS: tc.dps})
			accepted, rejected, invalid := 0, 0, 0
			for i, spec := range specs {
				sch, serr := seq.Request(spec)
				if (serr == nil) != (errs[i] == nil) {
					t.Fatalf("spec %d (%v): merged err=%v, sequential err=%v", i, spec, errs[i], serr)
				}
				if serr != nil {
					var mrej, srej *RejectionError
					if errors.As(errs[i], &mrej) != errors.As(serr, &srej) {
						t.Fatalf("spec %d: error kinds differ: %v vs %v", i, errs[i], serr)
					}
					if mrej != nil {
						rejected++
						if mrej.Link != srej.Link || mrej.Result.String() != srej.Result.String() {
							t.Fatalf("spec %d: diagnostics differ:\n  merged     %v\n  sequential %v", i, mrej, srej)
						}
					} else {
						invalid++
						if errs[i].Error() != serr.Error() {
							t.Fatalf("spec %d: validation errors differ: %q vs %q", i, errs[i], serr)
						}
					}
					continue
				}
				accepted++
				if chs[i].ID != sch.ID {
					t.Fatalf("spec %d: merged ID %d, sequential ID %d", i, chs[i].ID, sch.ID)
				}
			}
			if accepted == 0 || rejected == 0 || invalid == 0 {
				t.Fatalf("workload not mixed enough: %d accepted, %d rejected, %d invalid", accepted, rejected, invalid)
			}
			if got, want := stateFingerprint(merged), stateFingerprint(seq); got != want {
				t.Fatalf("committed states differ:\n  merged     %s\n  sequential %s", got, want)
			}
			ms, ss := merged.Stats(), seq.Stats()
			ms.LinksChecked, ss.LinksChecked = 0, 0
			ms.Repartitions, ss.Repartitions = 0, 0
			if ms != ss {
				t.Fatalf("stats differ (ex. kernel-effort counters):\n  merged     %+v\n  sequential %+v", ms, ss)
			}
			t.Logf("%s: accepted %d rejected %d invalid %d; repartition passes merged=%d sequential=%d",
				tc.name, accepted, rejected, invalid, merged.Stats().Repartitions, seq.Stats().Repartitions)
		})
	}
}

// TestRequestEachFeasibleBatchOnePass pins the scaling contract: a
// merged group that is feasible as a whole costs exactly one
// repartition pass, where sequential submission costs one per spec.
func TestRequestEachFeasibleBatchOnePass(t *testing.T) {
	specs := make([]ChannelSpec, 100)
	for i := range specs {
		specs[i] = ChannelSpec{Src: NodeID(1 + i%4), Dst: NodeID(5 + i%4), C: 1, P: 1000, D: 400}
	}
	c := NewController(Config{DPS: ADPS{}})
	_, errs := c.AdmitEach(nil, Unicast(specs))
	for i, err := range errs {
		if err != nil {
			t.Fatalf("spec %d rejected: %v", i, err)
		}
	}
	if got := c.Stats().Repartitions; got != 1 {
		t.Fatalf("Repartitions = %d after one feasible merged group, want 1", got)
	}
}
