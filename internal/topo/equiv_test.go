package topo

// Decision-equivalence tests for the fabric copy-on-write admission
// engine: the controller must match the clone oracle (reference) decision
// for decision, state for state; twin checks that, plus the invariants,
// after every step.

import (
	"fmt"
	"testing"

	"repro/internal/core"
)

// equivFabric is a 3-switch line with two nodes per switch.
func equivFabric() *Topology {
	top := Line(3)
	for n := core.NodeID(1); n <= 6; n++ {
		if err := top.AttachNode(n, SwitchID((n-1)/2)); err != nil {
			panic(err)
		}
	}
	return top
}

// equivRequests is a cross-fabric workload heavy enough to saturate
// trunks and produce rejections.
func equivRequests(n int) []core.ChannelSpec {
	out := make([]core.ChannelSpec, 0, n)
	for k := 0; k < n; k++ {
		src := core.NodeID(1 + k%6)
		dst := core.NodeID(1 + (k+3)%6)
		out = append(out, core.ChannelSpec{Src: src, Dst: dst, C: 2, P: 100, D: 36})
	}
	return out
}

func fabricStateKey(st *State) string {
	s := ""
	for _, ch := range st.Channels() {
		s += fmt.Sprintf("%d:%v:%v;", ch.ID, ch.Spec, ch.Hops)
	}
	return s
}

// TestFabricDecisionEquivalence replays a saturating workload (with
// interleaved releases, replacements and per-verdict replacements)
// through the controller and the clone oracle.
func TestFabricDecisionEquivalence(t *testing.T) {
	for _, scheme := range []HDPS{HSDPS{}, HADPS{}} {
		t.Run(scheme.Name(), func(t *testing.T) {
			w := newTwin(t, equivFabric(), Config{DPS: scheme})
			var accepted []core.ChannelID
			rejections, replaced, refused := 0, 0, 0
			for i, spec := range equivRequests(300) {
				ch, err := w.request(spec)
				if err != nil {
					rejections++
					continue
				}
				accepted = append(accepted, ch.ID)
				if i%5 == 2 && len(accepted) > 2 {
					victim := accepted[len(accepted)/2]
					accepted = append(accepted[:len(accepted)/2], accepted[len(accepted)/2+1:]...)
					w.release(victim)
				}
				// A reconfiguration that keeps the channel's ID and grows its
				// capacity (Apply), and two channels traded for a pair of
				// requests with a verdict each (AdmitEach with a release).
				if i%4 == 1 && len(accepted) > 3 {
					victim := accepted[len(accepted)/3]
					grown := w.ctrl.State().Get(victim).Spec
					grown.C += 2
					if _, err := w.replace([]core.ChannelID{victim}, []Req{{Spec: grown, ID: victim, KeepID: true}}); err != nil {
						refused++
					}
					replaced++
				}
				if i%11 == 7 && len(accepted) > 3 {
					pair := []core.ChannelID{accepted[0], accepted[len(accepted)-1]}
					accepted = accepted[1 : len(accepted)-1]
					chs, errs := w.admitEach(pair, []Req{{Spec: spec}, {Spec: equivRequests(i + 2)[i+1]}})
					for k, ch := range chs {
						if errs[k] == nil {
							accepted = append(accepted, ch.ID)
						}
					}
				}
			}
			if rejections == 0 {
				t.Fatal("workload never saturated — rejection path not exercised")
			}
			if refused == 0 || refused == replaced {
				t.Fatalf("%d of %d reconfigurations refused: one replace path not exercised", refused, replaced)
			}
			if w.ctrl.LinksChecked() >= w.ref.checked {
				t.Errorf("engine checked %d edges, the oracle %d — expected strictly fewer",
					w.ctrl.LinksChecked(), w.ref.checked)
			}
		})
	}
}

// TestFabricSweepCacheEquivalence replays a churn workload through the
// controller, which skips the links a decision did not move, and the
// oracle, which runs a from-scratch EDF test on every edge: identical
// verdicts and committed states, with links actually skipped. Releases
// that trigger kept-back partitions keep the same trunks moving.
func TestFabricSweepCacheEquivalence(t *testing.T) {
	for _, scheme := range []HDPS{HSDPS{}, HADPS{}} {
		t.Run(scheme.Name(), func(t *testing.T) {
			w := newTwin(t, equivFabric(), Config{DPS: scheme})
			var accepted []core.ChannelID
			for i, spec := range equivRequests(300) {
				if ch, err := w.request(spec); err == nil {
					accepted = append(accepted, ch.ID)
				}
				if i%4 == 1 && len(accepted) > 2 {
					victim := accepted[len(accepted)/2]
					accepted = append(accepted[:len(accepted)/2], accepted[len(accepted)/2+1:]...)
					w.release(victim)
				}
			}
			// H-SDPS is static: existing channels are never repartitioned,
			// so a sweep never contains an unmoved link and zero skips is
			// the correct (and desirable) outcome. Only the adaptive
			// scheme produces touched-but-unmoved links to skip.
			if _, adaptive := scheme.(HADPS); adaptive && w.ctrl.SweepSkips() == 0 {
				t.Error("no link skipped on the adaptive fabric workload")
			}
		})
	}
}

// TestFabricRequestAllMatchesSequential verifies the fabric batch path
// commits exactly the sequential state for a feasible batch.
func TestFabricRequestAllMatchesSequential(t *testing.T) {
	specs := equivRequests(12)
	for _, scheme := range []HDPS{HSDPS{}, HADPS{}} {
		t.Run(scheme.Name(), func(t *testing.T) {
			seq := NewController(equivFabric(), Config{DPS: scheme})
			for i, spec := range specs {
				if _, err := seq.Request(spec); err != nil {
					t.Fatalf("sequential request %d rejected: %v", i, err)
				}
			}
			batch := NewController(equivFabric(), Config{DPS: scheme})
			chs, err := batch.RequestAll(specs)
			if err != nil {
				t.Fatalf("RequestAll rejected: %v", err)
			}
			if len(chs) != len(specs) {
				t.Fatalf("RequestAll returned %d channels for %d specs", len(chs), len(specs))
			}
			if got, want := fabricStateKey(batch.State()), fabricStateKey(seq.State()); got != want {
				t.Fatalf("batch and sequential states diverge:\n%s\nvs\n%s", got, want)
			}
		})
	}
}
