package topo

// Decision-equivalence tests for the fabric copy-on-write admission
// engine: the incremental path must match the clone-based reference
// engine decision for decision, state for state. The reference engine is
// forced by hiding the scheme's IncrementalHDPS methods behind a plain
// HDPS wrapper.

import (
	"fmt"
	"testing"

	"repro/internal/core"
)

// cloneOnly strips the incremental interface off a scheme: interface
// embedding promotes only Name and Partition, so the controller falls
// back to the clone engine.
type cloneOnly struct{ HDPS }

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
// interleaved releases) through the incremental and the clone engines.
func TestFabricDecisionEquivalence(t *testing.T) {
	for _, scheme := range []HDPS{HSDPS{}, HADPS{}} {
		t.Run(scheme.Name(), func(t *testing.T) {
			if _, ok := scheme.(IncrementalHDPS); !ok {
				t.Fatalf("%s must implement IncrementalHDPS for this test to compare engines", scheme.Name())
			}
			if _, ok := interface{}(cloneOnly{scheme}).(IncrementalHDPS); ok {
				t.Fatal("cloneOnly wrapper failed to hide the incremental interface")
			}
			inc := NewController(equivFabric(), Config{DPS: scheme})
			ref := NewController(equivFabric(), Config{DPS: cloneOnly{scheme}})

			var accepted []core.ChannelID
			rejections := 0
			for i, spec := range equivRequests(300) {
				chI, errI := inc.Request(spec)
				chR, errR := ref.Request(spec)
				if (errI == nil) != (errR == nil) {
					t.Fatalf("request %d (%v): incremental err=%v, clone err=%v", i, spec, errI, errR)
				}
				if errI != nil {
					rejections++
					if errI.Error() != errR.Error() {
						t.Fatalf("request %d: rejection diagnostics diverge:\n  incremental: %v\n  clone:       %v", i, errI, errR)
					}
					continue
				}
				if chI.ID != chR.ID {
					t.Fatalf("request %d: channel IDs diverge: %d vs %d", i, chI.ID, chR.ID)
				}
				accepted = append(accepted, chI.ID)
				if i%5 == 2 && len(accepted) > 2 {
					victim := accepted[len(accepted)/2]
					accepted = append(accepted[:len(accepted)/2], accepted[len(accepted)/2+1:]...)
					if err := inc.Release(victim); err != nil {
						t.Fatalf("incremental release: %v", err)
					}
					if err := ref.Release(victim); err != nil {
						t.Fatalf("clone release: %v", err)
					}
				}
			}
			if rejections == 0 {
				t.Fatal("workload never saturated — rejection path not exercised")
			}
			if got, want := fabricStateKey(inc.State()), fabricStateKey(ref.State()); got != want {
				t.Fatalf("committed states diverge:\nincremental: %s\nclone:       %s", got, want)
			}
			if inc.Stats().Accepted != ref.Stats().Accepted || inc.Stats().Requests != ref.Stats().Requests {
				t.Fatalf("counters diverge: %d/%d vs %d/%d",
					inc.Stats().Accepted, inc.Stats().Requests, ref.Stats().Accepted, ref.Stats().Requests)
			}
		})
	}
}

// TestFabricSweepCacheEquivalence replays a churn workload through the
// cached (default), cache-disabled and FullRecheck fabric controllers:
// identical verdicts, diagnostics and committed states, with the cache
// actually hitting. Releases that trigger kept-back partitions and
// immediate re-establishes keep the same trunks' generations churning.
func TestFabricSweepCacheEquivalence(t *testing.T) {
	for _, scheme := range []HDPS{HSDPS{}, HADPS{}} {
		t.Run(scheme.Name(), func(t *testing.T) {
			cached := NewController(equivFabric(), Config{DPS: scheme})
			uncached := NewController(equivFabric(), Config{DPS: scheme, NoSweepCache: true})
			full := NewController(equivFabric(), Config{DPS: scheme, FullRecheck: true})
			ctrls := []*Controller{cached, uncached, full}
			names := []string{"cached", "uncached", "fullrecheck"}

			var accepted []core.ChannelID
			for i, spec := range equivRequests(300) {
				errs := make([]error, len(ctrls))
				ids := make([]core.ChannelID, len(ctrls))
				for j, c := range ctrls {
					ch, err := c.Request(spec)
					errs[j] = err
					if err == nil {
						ids[j] = ch.ID
					}
				}
				for j := 1; j < len(ctrls); j++ {
					if (errs[0] == nil) != (errs[j] == nil) {
						t.Fatalf("request %d: %s err=%v, %s err=%v", i, names[0], errs[0], names[j], errs[j])
					}
					if errs[0] != nil && errs[0].Error() != errs[j].Error() {
						t.Fatalf("request %d: diagnostics diverge:\n  %s: %v\n  %s: %v",
							i, names[0], errs[0], names[j], errs[j])
					}
					if errs[0] == nil && ids[0] != ids[j] {
						t.Fatalf("request %d: IDs diverge: %d vs %d", i, ids[0], ids[j])
					}
				}
				if errs[0] == nil {
					accepted = append(accepted, ids[0])
				}
				if i%4 == 1 && len(accepted) > 2 {
					victim := accepted[len(accepted)/2]
					accepted = append(accepted[:len(accepted)/2], accepted[len(accepted)/2+1:]...)
					for j, c := range ctrls {
						if err := c.Release(victim); err != nil {
							t.Fatalf("request %d: %s release: %v", i, names[j], err)
						}
					}
				}
			}

			for j := 1; j < len(ctrls); j++ {
				if got, want := fabricStateKey(ctrls[j].State()), fabricStateKey(ctrls[0].State()); got != want {
					t.Fatalf("states diverge (%s vs %s):\n%s\nvs\n%s", names[j], names[0], got, want)
				}
				if ctrls[j].Stats().Accepted != ctrls[0].Stats().Accepted {
					t.Fatalf("accept counts diverge: %s %d vs %s %d",
						names[j], ctrls[j].Stats().Accepted, names[0], ctrls[0].Stats().Accepted)
				}
			}
			if cached.LinksChecked() != uncached.LinksChecked() {
				t.Fatalf("LinksChecked diverge: cached %d, uncached %d",
					cached.LinksChecked(), uncached.LinksChecked())
			}
			// H-SDPS is static: existing channels are never repartitioned,
			// so a sweep never contains a content-unchanged link and zero
			// cache hits is the correct (and desirable) outcome. Only the
			// adaptive scheme produces touched-but-unmoved links to skip.
			if _, adaptive := scheme.(HADPS); adaptive && cached.SweepSkips() == 0 {
				t.Error("verdict cache never hit on the adaptive fabric workload")
			}
			if uncached.SweepSkips() != 0 || full.SweepSkips() != 0 {
				t.Errorf("cache-disabled engines reported skips: uncached=%d full=%d",
					uncached.SweepSkips(), full.SweepSkips())
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

// TestRepartitionedReportsExactDelta verifies the changed-channel set the
// controller reports is precisely what a full comparison of hop vectors
// yields — the contract the simulation budget sync relies on.
func TestRepartitionedReportsExactDelta(t *testing.T) {
	ctrl := NewController(equivFabric(), Config{DPS: HADPS{}})
	prev := map[core.ChannelID][]int64{}
	for i, spec := range equivRequests(40) {
		ch, err := ctrl.Request(spec)
		if err != nil {
			continue
		}
		_ = ch
		reported := map[core.ChannelID]bool{}
		for _, id := range ctrl.Repartitioned() {
			reported[id] = true
		}
		cur := map[core.ChannelID][]int64{}
		for _, hch := range ctrl.State().Channels() {
			cur[hch.ID] = append([]int64(nil), hch.Hops...)
			if equalVec(prev[hch.ID], hch.Hops) == reported[hch.ID] {
				t.Fatalf("request %d: channel %d changed=%v but reported=%v (prev=%v cur=%v)",
					i, hch.ID, !equalVec(prev[hch.ID], hch.Hops), reported[hch.ID], prev[hch.ID], hch.Hops)
			}
		}
		prev = cur
	}
}
