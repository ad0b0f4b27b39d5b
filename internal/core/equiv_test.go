package core_test

// Decision-equivalence tests for the copy-on-write admission engine: the
// controller (persistent per-link caches, delta repartitioning,
// changed-links verification, skipping the links a decision did not
// move) must be
// indistinguishable from the clone oracle core.Reference — identical
// accept/reject verdicts, identical committed states, and a named
// rejection link the oracle's tentative state fails on. core.Twin checks
// all of that, plus the invariants, after every step.
//
// The tests live in an external package so they can replay the paper's
// Fig. 18.5 workload from internal/traffic, which itself imports core.

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/traffic"
)

// snapshotOf serializes a controller's committed state for comparison.
func snapshotOf(t *testing.T, c *core.Controller) string {
	t.Helper()
	var buf bytes.Buffer
	if err := c.WriteSnapshot(&buf); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	return buf.String()
}

// TestAdmissionDecisionEquivalence replays the Fig. 18.5 establishment
// sequence (extended past saturation, with interleaved releases and
// replacements) through the controller and the clone oracle, asserting
// identical decisions at every step.
func TestAdmissionDecisionEquivalence(t *testing.T) {
	requests := traffic.PaperLayout.Requests(400, traffic.PaperSpec)
	for _, dps := range []core.DPS{core.SDPS{}, core.ADPS{}, core.FixedDPS{UpNum: 5, UpDen: 6}} {
		t.Run(dps.Name(), func(t *testing.T) {
			w := core.NewTwin(t, core.Config{DPS: dps})
			var accepted []core.ChannelID
			rejected, replaced, refused := 0, 0, 0
			for i, spec := range requests {
				ch, err := w.Request(spec)
				if err != nil {
					rejected++
					continue
				}
				accepted = append(accepted, ch.ID)
				// Interleave releases so the Release path (removal plus
				// repartition-if-feasible) is equivalence-checked too.
				if i%7 == 3 && len(accepted) > 2 {
					victim := accepted[len(accepted)/2]
					accepted = append(accepted[:len(accepted)/2], accepted[len(accepted)/2+1:]...)
					w.Release(victim)
				}
				// And replacements (Apply): a reconfiguration that keeps the
				// channel's ID and doubles its capacity, and two channels
				// traded for this request's spec under a new ID.
				if i%5 == 1 && len(accepted) > 3 {
					victim := accepted[len(accepted)/3]
					grown := w.Ctrl.State().Get(victim).Spec
					grown.C = min(2*grown.C, grown.D/2)
					if _, err := w.Replace([]core.ChannelID{victim}, []core.Req{{Spec: grown, ID: victim, KeepID: true}}); err != nil {
						refused++
					}
					replaced++
				}
				if i%13 == 8 && len(accepted) > 3 {
					pair := []core.ChannelID{accepted[0], accepted[len(accepted)-1]}
					if chs, err := w.Replace(pair, []core.Req{{Spec: spec}}); err == nil {
						accepted = append(accepted[1:len(accepted)-1], chs[0].ID)
					}
				}
			}
			if rejected == 0 {
				t.Fatal("workload never saturated — rejection path not exercised")
			}
			if refused == 0 || refused == replaced {
				t.Fatalf("%d of %d reconfigurations refused: one replace path not exercised", refused, replaced)
			}
			if w.Ctrl.Stats().LinksChecked >= w.Ref.Checked {
				t.Errorf("engine checked %d links, the oracle %d — expected strictly fewer",
					w.Ctrl.Stats().LinksChecked, w.Ref.Checked)
			}
		})
	}
}

// TestSweepCacheEquivalence replays a churn workload — establishes,
// releases of recent and old channels, and immediate re-establishes that
// move the same links over and over — through the controller, which
// skips the links a decision did not move, and the oracle, which runs a
// from-scratch EDF test on every link: the skips may only change how many
// EDF analyses actually run.
func TestSweepCacheEquivalence(t *testing.T) {
	requests := traffic.PaperLayout.Requests(400, traffic.PaperSpec)
	for _, dps := range []core.DPS{core.SDPS{}, core.ADPS{}} {
		t.Run(dps.Name(), func(t *testing.T) {
			w := core.NewTwin(t, core.Config{DPS: dps})
			var accepted []core.ChannelID
			for i, spec := range requests {
				if ch, err := w.Request(spec); err == nil {
					accepted = append(accepted, ch.ID)
				}
				// Churn: release a mid-history victim and immediately
				// re-establish its spec, moving the same links over and
				// over — a link that only lost a task may be skipped, one
				// that gained one never.
				if i%5 == 4 && len(accepted) > 3 {
					victim := accepted[len(accepted)/3]
					accepted = append(accepted[:len(accepted)/3], accepted[len(accepted)/3+1:]...)
					w.Release(victim)
					if ch, err := w.Request(spec); err == nil {
						accepted = append(accepted, ch.ID)
					}
				}
			}
			// No SweepSkips lower bound here: a star channel's partition is
			// the complementary pair {d_iu, d_id}, so when ADPS moves a
			// channel both hop tasks move with it and every swept link
			// really did move — zero skips is the correct outcome for
			// 2-hop workloads. Skips are pinned at kernel level
			// (admit.TestSweepSkipsUnmovedLinks)
			// and on the fabric's longer hop vectors
			// (topo.TestFabricSweepCacheEquivalence), where repartitions
			// leave interior budgets untouched.
		})
	}
}

// keptBackStar builds the smallest star with a kept-back release under
// ADPS with D <= P: channels 2 and 3 share uplink 6 with channel 1, and
// releasing channel 1 would move channel 2's split from {7 3} to {6 4},
// which leaves uplink 6 infeasible — so every partition stays as it was.
func keptBackStar(t *testing.T) *core.Twin {
	t.Helper()
	w := core.NewTwin(t, core.Config{DPS: core.ADPS{}})
	for _, spec := range []core.ChannelSpec{
		{Src: 6, Dst: 1, C: 3, P: 96, D: 59},
		{Src: 6, Dst: 4, C: 3, P: 43, D: 10},
		{Src: 6, Dst: 3, C: 4, P: 96, D: 9},
	} {
		if _, err := w.Request(spec); err != nil {
			t.Fatalf("setup %v: %v", spec, err)
		}
	}
	w.Release(1)
	if p := w.Ctrl.State().Get(2).Part; p != (core.Partition{Up: 7, Down: 3}) {
		t.Fatalf("channel 2 holds %+v after the kept-back release, want {7 3}", p)
	}
	return w
}

// TestKeptBackReleaseLeavesDisjointRequestsAlone is the reproducer for a
// release coupling unrelated decisions: after the kept-back release a
// request on links no channel of the star shares (uplink 4, downlink 5)
// was refused naming uplink 6, because the kept-back channels' links were
// folded into every later decision. It is accepted, and the kept-back
// partitions stay as they were.
func TestKeptBackReleaseLeavesDisjointRequestsAlone(t *testing.T) {
	w := keptBackStar(t)
	if _, err := w.Request(core.ChannelSpec{Src: 4, Dst: 5, C: 2, P: 41, D: 15}); err != nil {
		t.Fatalf("disjoint request refused: %v", err)
	}
	if p := w.Ctrl.State().Get(2).Part; p != (core.Partition{Up: 7, Down: 3}) {
		t.Fatalf("disjoint request moved the kept-back channel 2 to %+v", p)
	}
}

// TestKeptBackPartitionRecomputedWhenTouched pins the other half of the
// rule: the next decision touching one of a kept-back channel's links
// recomputes it as usual. A request into downlink 4 recomputes channel 2
// to {5 5}, which uplink 6 cannot carry, so it is refused naming that
// neighbour's far link; a release on uplink 6 recomputes channel 2 and
// commits.
func TestKeptBackPartitionRecomputedWhenTouched(t *testing.T) {
	w := keptBackStar(t)
	_, err := w.Request(core.ChannelSpec{Src: 1, Dst: 4, C: 1, P: 1000, D: 1000})
	var rej *core.RejectionError
	if !errors.As(err, &rej) || rej.Link != core.Uplink(6) {
		t.Fatalf("request into downlink 4: err=%v, want a refusal naming link(6,up)", err)
	}
	if p := w.Ctrl.State().Get(2).Part; p != (core.Partition{Up: 7, Down: 3}) {
		t.Fatalf("refused request left channel 2 at %+v", p)
	}
	w.Release(3)
	if p := w.Ctrl.State().Get(2).Part; p != (core.Partition{Up: 5, Down: 5}) {
		t.Fatalf("release on uplink 6 left channel 2 at %+v, want {5 5}", p)
	}
}

// TestRejectionLeavesNoTrace verifies the copy-on-write rollback exactly:
// a controller that suffered rejections must be bit-identical (state,
// snapshot, subsequent IDs) to one that only ever saw the accepted
// requests.
func TestRejectionLeavesNoTrace(t *testing.T) {
	requests := traffic.PaperLayout.Requests(300, traffic.PaperSpec)

	dirty := core.NewController(core.Config{DPS: core.ADPS{}})
	clean := core.NewController(core.Config{DPS: core.ADPS{}})
	for _, spec := range requests {
		if _, err := dirty.Request(spec); err == nil {
			if _, err := clean.Request(spec); err != nil {
				t.Fatalf("clean controller rejected a spec the dirty one accepted: %v", err)
			}
		}
	}
	if dirty.Stats().Accepted == dirty.Stats().Requests {
		t.Fatal("workload saturated nothing — rejections were never exercised")
	}
	if got, want := snapshotOf(t, dirty), snapshotOf(t, clean); got != want {
		t.Fatalf("rejections left a trace in the committed state:\n%s\nvs\n%s", got, want)
	}
	// The ID allocator must have been rolled back too: the next accepted
	// channel gets the same ID on both.
	fresh := core.ChannelSpec{Src: 60, Dst: 61, C: 1, P: 1000, D: 100}
	chD, errD := dirty.Request(fresh)
	chC, errC := clean.Request(fresh)
	if errD != nil || errC != nil {
		t.Fatalf("fresh request rejected: %v / %v", errD, errC)
	}
	if chD.ID != chC.ID {
		t.Fatalf("ID allocator diverged after rejections: %d vs %d", chD.ID, chC.ID)
	}
}

// TestRequestAllMatchesSequential verifies the batch API: admitting a
// feasible batch in one RequestAll call must commit exactly the state a
// sequential establishment sequence produces — same IDs, same partitions.
func TestRequestAllMatchesSequential(t *testing.T) {
	requests := traffic.PaperLayout.Requests(50, traffic.PaperSpec)
	for _, dps := range []core.DPS{core.SDPS{}, core.ADPS{}} {
		t.Run(dps.Name(), func(t *testing.T) {
			seq := core.NewController(core.Config{DPS: dps})
			for i, spec := range requests {
				if _, err := seq.Request(spec); err != nil {
					t.Fatalf("sequential request %d rejected: %v", i, err)
				}
			}
			batch := core.NewController(core.Config{DPS: dps})
			chs, err := batch.RequestAll(requests)
			if err != nil {
				t.Fatalf("RequestAll rejected: %v", err)
			}
			if len(chs) != len(requests) {
				t.Fatalf("RequestAll returned %d channels for %d specs", len(chs), len(requests))
			}
			if got, want := snapshotOf(t, batch), snapshotOf(t, seq); got != want {
				t.Fatalf("batch and sequential committed states diverge:\n%s\nvs\n%s", got, want)
			}
			st := batch.Stats()
			if st.Requests != len(requests) || st.Accepted != len(requests) {
				t.Fatalf("batch stats: %+v", st)
			}
		})
	}
}

// TestRequestAllAtomic verifies all-or-nothing batch semantics: one
// infeasible member rejects the whole batch and leaves the controller
// untouched.
func TestRequestAllAtomic(t *testing.T) {
	ok := core.ChannelSpec{Src: 1, Dst: 2, C: 3, P: 100, D: 40}
	hog := core.ChannelSpec{Src: 1, Dst: 3, C: 90, P: 100, D: 190} // U=0.9 on uplink 1
	ctrl := core.NewController(core.Config{DPS: core.ADPS{}})
	// 3 uplink-1 channels of U=0.9 can never fit together.
	_, err := ctrl.RequestAll([]core.ChannelSpec{ok, hog, hog, hog})
	if err == nil {
		t.Fatal("infeasible batch accepted")
	}
	if ctrl.State().Len() != 0 {
		t.Fatalf("rejected batch left %d channels committed", ctrl.State().Len())
	}
	st := ctrl.Stats()
	if st.Requests != 4 || st.Accepted != 0 {
		t.Fatalf("batch stats %+v", st)
	}
	// The controller must still work afterwards.
	if _, err := ctrl.Request(ok); err != nil {
		t.Fatalf("controller wedged after batch rejection: %v", err)
	}
}
