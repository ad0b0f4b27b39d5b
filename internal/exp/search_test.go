package exp

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/edf"
	"repro/internal/traffic"
)

// accepted requests every spec through the search and counts the
// admissions.
func accepted(s *search, specs []core.ChannelSpec) int {
	n := 0
	for _, spec := range specs {
		if _, err := s.Request(spec); err == nil {
			n++
		}
	}
	return n
}

func TestFallbackDPSRescuesRejections(t *testing.T) {
	// Primary SDPS saturates master uplinks at 6 channels; an ADPS
	// fallback must rescue requests SDPS alone rejects.
	requests := traffic.PaperLayout.Requests(200, traffic.PaperSpec)
	plain := accepted(newSearch(core.SDPS{}), requests)
	withFallback := accepted(newSearch(core.SDPS{}, core.ADPS{}), requests)
	if plain != 60 {
		t.Fatalf("SDPS-only accepted %d, want 60", plain)
	}
	if withFallback <= plain {
		t.Errorf("fallback accepted %d, want > %d", withFallback, plain)
	}
}

// TestFallbackMonotonePerRequest pins the correct monotonicity property:
// from an identical committed state, any request the primary-only
// controller accepts is also accepted by the search (the primary is
// tried first). Whole *sequences* are not monotone — an extra early
// acceptance can block several later requests — which is exactly why
// experiment E9 reports sequence-level numbers separately.
func TestFallbackMonotonePerRequest(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	rescues, agreements := 0, 0
	for trial := 0; trial < 20; trial++ {
		primary := core.NewController(core.Config{DPS: core.ADPS{}})
		s := newSearch(core.ADPS{}, core.SDPS{}, core.FixedDPS{UpNum: 2, UpDen: 3}, core.FixedDPS{UpNum: 1, UpDen: 3})
		for step := 0; step < 120; step++ {
			cc := int64(rng.Intn(4) + 1)
			spec := core.ChannelSpec{
				Src: core.NodeID(rng.Intn(5)),
				Dst: core.NodeID(10 + rng.Intn(10)),
				C:   cc,
				P:   int64(rng.Intn(150) + 50),
				D:   2*cc + int64(rng.Intn(50)),
			}
			_, errP := primary.Request(spec)
			_, errS := s.Request(spec)
			if errP == nil {
				agreements++
				if errS != nil {
					t.Fatalf("trial %d step %d: primary accepted %v but search rejected: %v",
						trial, step, spec, errS)
				}
				continue
			}
			if errS == nil {
				// A genuine rescue; states now diverge, end the trial.
				rescues++
				break
			}
		}
	}
	if agreements == 0 {
		t.Fatal("fuzz produced no accepted requests")
	}
	t.Logf("per-request agreement on %d accepts; %d fallback rescues observed", agreements, rescues)
}

func TestFallbackCommittedStateStaysFeasible(t *testing.T) {
	s := newSearch(core.SDPS{}, core.ADPS{}, core.FixedDPS{UpNum: 5, UpDen: 6})
	accepted(s, traffic.PaperLayout.Requests(200, traffic.PaperSpec))
	st := s.ctrl.State()
	for _, l := range st.Links() {
		if res := edf.TestDefault(st.TasksOn(l)); !res.OK() {
			t.Fatalf("committed state infeasible on %v after fallback search: %v", l, res)
		}
	}
	for _, ch := range st.Channels() {
		if !ch.Part.ValidFor(ch.Spec) {
			t.Fatalf("channel %v has invalid partition", ch)
		}
	}
}

// TestFallbackRejectionReportsPrimaryReason: when every scheme fails, the
// search returns the rejection the primary alone gives in the same state.
func TestFallbackRejectionReportsPrimaryReason(t *testing.T) {
	s := newSearch(core.SDPS{}, core.ADPS{})
	primary := core.NewController(core.Config{DPS: core.SDPS{}})
	// Saturate utterly: C=50/P=100 channels, two fill each link direction.
	spec := core.ChannelSpec{Src: 1, C: 50, P: 100, D: 200}
	for i := 0; i < 2; i++ {
		spec.Dst = core.NodeID(2 + i)
		if _, err := s.Request(spec); err != nil {
			t.Fatal(err)
		}
		if _, err := primary.Request(spec); err != nil {
			t.Fatal(err)
		}
	}
	spec.Dst = 9
	_, err := s.Request(spec)
	var rej *core.RejectionError
	if !errors.As(err, &rej) {
		t.Fatalf("err = %v, want RejectionError after all schemes fail", err)
	}
	if _, want := primary.Request(spec); !reflect.DeepEqual(err, want) {
		t.Fatalf("search rejected with %v, want the primary's %v", err, want)
	}
	if got := s.DPS; got != (core.SDPS{}) {
		t.Fatalf("search left %s in force after the rejection, want the primary", got.Name())
	}
}
