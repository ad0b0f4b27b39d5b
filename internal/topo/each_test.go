package topo

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
)

// eachTestTopology builds a 3-switch line with nodes 1-2 on switch 0,
// 3-4 on switch 1, 5-6 on switch 2, and node 9 unattached (no-route
// specs reference it).
func eachTestTopology(t *testing.T) *Topology {
	t.Helper()
	top := NewTopology()
	for sw := 0; sw < 3; sw++ {
		if err := top.AddSwitch(SwitchID(sw)); err != nil {
			t.Fatal(err)
		}
	}
	if err := top.ConnectSwitches(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := top.ConnectSwitches(1, 2); err != nil {
		t.Fatal(err)
	}
	for n := 1; n <= 6; n++ {
		if err := top.AttachNode(core.NodeID(n), SwitchID((n-1)/2)); err != nil {
			t.Fatal(err)
		}
	}
	return top
}

// randomFabricSpecs draws a mixed routed workload: valid specs under
// pressure, a few no-route specs (unattached node 9) and a few invalid
// ones.
func randomFabricSpecs(rng *rand.Rand, count int) []core.ChannelSpec {
	specs := make([]core.ChannelSpec, count)
	for i := range specs {
		src := core.NodeID(1 + rng.Intn(6))
		dst := core.NodeID(1 + rng.Intn(6))
		for dst == src {
			dst = core.NodeID(1 + rng.Intn(6))
		}
		c := int64(1 + rng.Intn(2))
		p := int64(20 + rng.Intn(100))
		d := 4*c + int64(rng.Intn(30))
		switch rng.Intn(20) {
		case 0:
			dst = 9 // no route: node 9 is unattached
		case 1:
			d = 2*c - 1 // invalid spec
		}
		specs[i] = core.ChannelSpec{Src: src, Dst: dst, C: c, P: p, D: d}
	}
	return specs
}

// hchFingerprint serializes committed channels with their hop vectors.
func hchFingerprint(c *Controller) string {
	out := ""
	for _, ch := range c.State().Channels() {
		out += fmt.Sprintf("%d:%v:%v;", ch.ID, ch.Spec, ch.Hops)
	}
	return out
}

// TestRequestEachMatchesSequentialFabric replays the same merged
// workload through RequestEach and sequential Request on fresh
// controllers for both hop-general schemes, requiring identical
// verdicts, diagnostics and committed hop vectors — the fabric half of
// the coalescing decision-equivalence criterion. H-SDPS equivalence is
// exact by construction (monotone scheme); the H-ADPS subtest pins the
// equivalence observed on this fixed seeded workload (see
// admit.AdmitEach for why load-adaptive schemes can in principle
// diverge on merged groups).
func TestRequestEachMatchesSequentialFabric(t *testing.T) {
	for _, tc := range []struct {
		name string
		dps  HDPS
	}{
		{"HSDPS", HSDPS{}},
		{"HADPS", HADPS{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			specs := randomFabricSpecs(rng, 300)

			merged := NewController(eachTestTopology(t), Config{DPS: tc.dps})
			chs, errs := merged.AdmitEach(nil, core.Unicast(specs))

			seq := NewController(eachTestTopology(t), Config{DPS: tc.dps})
			accepted, rejected, noRoute, invalid := 0, 0, 0, 0
			for i, spec := range specs {
				sch, serr := seq.Request(spec)
				if (serr == nil) != (errs[i] == nil) {
					t.Fatalf("spec %d (%v): merged err=%v, sequential err=%v", i, spec, errs[i], serr)
				}
				if serr != nil {
					switch {
					case errors.Is(serr, ErrNoRoute), errors.Is(serr, ErrUnknownNode):
						noRoute++
					case errors.As(serr, new(*RejectionError)):
						rejected++
						var mrej, srej *RejectionError
						errors.As(errs[i], &mrej)
						errors.As(serr, &srej)
						if mrej == nil || mrej.Edge != srej.Edge || mrej.Result.String() != srej.Result.String() {
							t.Fatalf("spec %d: diagnostics differ:\n  merged     %v\n  sequential %v", i, errs[i], serr)
						}
					default:
						invalid++
					}
					if errs[i].Error() != serr.Error() {
						t.Fatalf("spec %d: errors differ: %q vs %q", i, errs[i], serr)
					}
					continue
				}
				accepted++
				if chs[i].ID != sch.ID {
					t.Fatalf("spec %d: merged ID %d, sequential ID %d", i, chs[i].ID, sch.ID)
				}
			}
			if accepted == 0 || rejected == 0 || noRoute == 0 || invalid == 0 {
				t.Fatalf("workload not mixed enough: %d accepted, %d rejected, %d no-route, %d invalid",
					accepted, rejected, noRoute, invalid)
			}
			if got, want := hchFingerprint(merged), hchFingerprint(seq); got != want {
				t.Fatalf("committed states differ:\n  merged     %s\n  sequential %s", got, want)
			}
			if merged.Stats().Accepted != seq.Stats().Accepted || merged.Stats().Requests != seq.Stats().Requests {
				t.Fatalf("counters differ: merged %d/%d, sequential %d/%d",
					merged.Stats().Accepted, merged.Stats().Requests, seq.Stats().Accepted, seq.Stats().Requests)
			}
			t.Logf("%s: accepted %d rejected %d no-route %d invalid %d; repartition passes merged=%d sequential=%d",
				tc.name, accepted, rejected, noRoute, invalid, merged.Repartitions(), seq.Repartitions())
		})
	}
}
