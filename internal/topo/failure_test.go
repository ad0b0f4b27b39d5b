package topo

// Seeded failure-churn replay: random trunk down/repair cycles over a
// 4-switch ring fabric, with the affected channels re-routed and batch
// re-admitted under their old IDs after every failure — the same cycle
// the rtether failover layer drives. The test asserts two properties:
//
//  1. determinism — the same seed replays to the byte-identical event
//     log (routes included), and
//  2. decision equivalence — the incremental engine, the clone-based
//     reference engine and the FullRecheck variant agree verdict for
//     verdict and state for state across every down/repair cycle.

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/edf"
)

// ringFabric is a 4-switch ring (0-1, 1-2, 2-3, 3-0) with two nodes per
// switch, so every trunk failure leaves a detour.
func ringFabric() *Topology {
	top := NewTopology()
	for s := SwitchID(0); s < 4; s++ {
		if err := top.AddSwitch(s); err != nil {
			panic(err)
		}
	}
	for _, tr := range [][2]SwitchID{{0, 1}, {1, 2}, {2, 3}, {3, 0}} {
		if err := top.ConnectSwitches(tr[0], tr[1]); err != nil {
			panic(err)
		}
	}
	for n := core.NodeID(1); n <= 8; n++ {
		if err := top.AttachNode(n, SwitchID((n-1)/2)); err != nil {
			panic(err)
		}
	}
	return top
}

// crossesTrunk reports whether a route uses the trunk a-b in either
// direction.
func crossesTrunk(route []Edge, a, b SwitchID) bool {
	ea, eb := SwitchEnd(a), SwitchEnd(b)
	for _, e := range route {
		if (e.From == ea && e.To == eb) || (e.From == eb && e.To == ea) {
			return true
		}
	}
	return false
}

// deepStateKey extends fabricStateKey with the per-edge view the EDF
// verifier actually consumes (loads and derived task sets), so engine
// divergence is caught at the step that corrupts auxiliary state, not
// at the later decision it skews.
func deepStateKey(st *State) string {
	s := fabricStateKey(st)
	for _, e := range st.Edges() {
		s += fmt.Sprintf("|%v:%d:%v", e, st.LinkLoad(e), st.TasksOn(e))
	}
	return s
}

// churnWorld is one engine variant's fabric plus controller.
type churnWorld struct {
	name string
	top  *Topology
	ctrl *Controller
}

// failTrunk replays one failure on a single world: down the trunk,
// release every channel routed over it (ID order), and re-admit the
// batch under the old IDs. The returned string captures the verdicts and
// the recomputed routes.
func (w *churnWorld) failTrunk(t *testing.T, a, b SwitchID) string {
	t.Helper()
	if changed, err := w.top.SetLinkUp(a, b, false); err != nil || !changed {
		t.Fatalf("%s: SetLinkUp(%d,%d,false) = %v, %v", w.name, a, b, changed, err)
	}
	var affected []*HChannel
	for _, hch := range w.ctrl.State().Channels() {
		if crossesTrunk(hch.Route, a, b) {
			affected = append(affected, hch)
		}
	}
	sort.Slice(affected, func(i, j int) bool { return affected[i].ID < affected[j].ID })
	reqs := make([]Req, len(affected))
	for i, hch := range affected {
		if err := w.ctrl.Release(hch.ID); err != nil {
			t.Fatalf("%s: release affected %d: %v", w.name, hch.ID, err)
		}
		reqs[i] = Req{Spec: hch.Spec, Sinks: hch.Sinks, ID: hch.ID, KeepID: true}
	}
	chs, errs := w.ctrl.AdmitEach(reqs)
	var sb strings.Builder
	fmt.Fprintf(&sb, "fail %d-%d affected=%d:", a, b, len(affected))
	for i := range reqs {
		if errs[i] != nil {
			fmt.Fprintf(&sb, " %d=rej(%v)", reqs[i].ID, errs[i])
			continue
		}
		if chs[i].ID != reqs[i].ID {
			t.Fatalf("%s: re-admission changed channel ID %d to %d", w.name, reqs[i].ID, chs[i].ID)
		}
		fmt.Fprintf(&sb, " %d=%v", chs[i].ID, chs[i].Route)
	}
	return sb.String()
}

// repairTrunk restores a trunk on one world. Channels stay where the
// recovery pass put them — repair only re-opens the routes.
func (w *churnWorld) repairTrunk(t *testing.T, a, b SwitchID) {
	t.Helper()
	if changed, err := w.top.SetLinkUp(a, b, true); err != nil || !changed {
		t.Fatalf("%s: repair %d-%d: %v, %v", w.name, a, b, changed, err)
	}
}

// replayChurn drives the full seeded workload over all three engine
// variants in lockstep and returns the combined event log.
func replayChurn(t *testing.T, seed int64) string {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	worlds := []*churnWorld{
		{name: "incremental"},
		{name: "clone"},
		{name: "fullrecheck"},
	}
	for _, w := range worlds {
		w.top = ringFabric()
		cfg := Config{DPS: HADPS{}}
		if w.name == "clone" {
			cfg.DPS = cloneOnly{cfg.DPS}
		}
		if w.name == "fullrecheck" {
			cfg.FullRecheck = true
		}
		w.ctrl = NewController(w.top, cfg)
	}
	// step drives one operation through every world and asserts the
	// outcome (and the committed state) is identical everywhere.
	step := func(what string, op func(w *churnWorld) string) string {
		t.Helper()
		ref := op(worlds[0])
		for _, w := range worlds[1:] {
			if got := op(w); got != ref {
				t.Fatalf("%s: %s diverges from incremental:\n%s\nvs\n%s", w.name, what, got, ref)
			}
			if got, want := deepStateKey(w.ctrl.State()), deepStateKey(worlds[0].ctrl.State()); got != want {
				t.Fatalf("%s: state diverges after %s:\n%s\nvs\n%s", w.name, what, got, want)
			}
		}
		for _, e := range worlds[0].ctrl.State().Edges() {
			if res := edf.TestDefault(worlds[0].ctrl.State().TasksOn(e)); !res.OK() {
				t.Fatalf("after %s: committed state infeasible on %v: %v", what, e, res)
			}
		}
		return ref
	}

	trunks := [][2]SwitchID{{0, 1}, {1, 2}, {2, 3}, {3, 0}}
	var log strings.Builder
	var live []core.ChannelID
	rejected := 0
	for round := 0; round < 24; round++ {
		// A few establishments, every fifth one a 2-sink multicast tree.
		for k := 0; k < 1+rng.Intn(3); k++ {
			src := core.NodeID(1 + rng.Intn(8))
			spec := core.ChannelSpec{Src: src, C: 2, P: 100, D: int64(28 + rng.Intn(20))}
			var sinks []core.NodeID
			if (round+k)%5 == 4 {
				for len(sinks) < 2 {
					s := core.NodeID(1 + rng.Intn(8))
					if s != src && (len(sinks) == 0 || sinks[0] != s) {
						sinks = append(sinks, s)
					}
				}
				spec.Dst = sinks[0]
			} else {
				for {
					dst := core.NodeID(1 + rng.Intn(8))
					if dst != src {
						spec.Dst = dst
						break
					}
				}
			}
			line := step("establish", func(w *churnWorld) string {
				chs, errs := w.ctrl.AdmitEach([]Req{{Spec: spec, Sinks: sinks}})
				if errs[0] != nil {
					return fmt.Sprintf("est %v sinks=%v rej(%v)", spec, sinks, errs[0])
				}
				return fmt.Sprintf("est %v sinks=%v id=%d route=%v", spec, sinks, chs[0].ID, chs[0].Route)
			})
			if strings.Contains(line, "rej(") {
				rejected++
			} else {
				var id core.ChannelID
				fmt.Sscanf(line[strings.Index(line, "id="):], "id=%d", &id)
				live = append(live, id)
			}
			log.WriteString(line + "\n")
		}
		// Occasional release keeps headroom so later rounds still admit.
		if len(live) > 6 && rng.Intn(2) == 0 {
			i := rng.Intn(len(live))
			id := live[i]
			live = append(live[:i], live[i+1:]...)
			step("release", func(w *churnWorld) string {
				if err := w.ctrl.Release(id); err != nil {
					t.Fatalf("%s: release %d: %v", w.name, id, err)
				}
				return fmt.Sprintf("rel %d", id)
			})
			fmt.Fprintf(&log, "rel %d\n", id)
		}
		// Every third round: a down/repair cycle on a random ring trunk.
		if round%3 == 2 {
			tr := trunks[rng.Intn(len(trunks))]
			line := step("failover", func(w *churnWorld) string {
				return w.failTrunk(t, tr[0], tr[1])
			})
			log.WriteString(line + "\n")
			// Channels the residual ring could not carry are gone; drop
			// them from the live set.
			alive := map[core.ChannelID]bool{}
			for _, hch := range worlds[0].ctrl.State().Channels() {
				alive[hch.ID] = true
			}
			kept := live[:0]
			for _, id := range live {
				if alive[id] {
					kept = append(kept, id)
				}
			}
			live = kept
			step("repair", func(w *churnWorld) string {
				w.repairTrunk(t, tr[0], tr[1])
				return "repair"
			})
			fmt.Fprintf(&log, "repair %d-%d\n", tr[0], tr[1])
		}
	}
	if rejected == 0 {
		t.Fatal("workload never saturated — rejection equivalence not exercised")
	}
	if !strings.Contains(log.String(), "affected=") {
		t.Fatal("no failure ever hit a routed channel")
	}
	return log.String()
}

// TestFailureChurnReplayEquivalence is the seeded survivability replay:
// byte-identical logs for the same seed, engine-equivalent decisions
// throughout (the per-step assertions live in replayChurn).
func TestFailureChurnReplayEquivalence(t *testing.T) {
	first := replayChurn(t, 7)
	second := replayChurn(t, 7)
	if first != second {
		t.Fatalf("same seed replayed differently:\n--- first ---\n%s--- second ---\n%s", first, second)
	}
	// A different seed must still be internally equivalent (asserted in
	// replayChurn) — and, almost surely, produce a different history.
	if other := replayChurn(t, 8); other == first {
		t.Fatal("different seeds produced identical histories (suspicious workload generator)")
	}
}
