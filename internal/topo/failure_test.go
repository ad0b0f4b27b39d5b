package topo

// Seeded failure-churn replay: random trunk down/repair cycles over a
// 4-switch ring fabric, with the affected channels re-routed and batch
// re-admitted under their old IDs after every failure — the same cycle
// the rtether failover layer drives. The test asserts two properties:
//
//  1. determinism — the same seed replays to the byte-identical event
//     log (routes included), and
//  2. decision equivalence — the controller and the clone oracle agree
//     verdict for verdict and state for state across every down/repair
//     cycle, with the twin's invariants holding after every step.

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
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

// failTrunk replays one failure: down the trunk, then release every
// channel routed over it (ID order) and re-admit the batch under the old
// IDs in one AdmitEach pass, as failure recovery does. The returned string
// captures the verdicts and the recomputed routes.
func (w *twin) failTrunk(a, b SwitchID) string {
	w.t.Helper()
	if changed, err := w.top.SetLinkUp(a, b, false); err != nil || !changed {
		w.t.Fatalf("SetLinkUp(%d,%d,false) = %v, %v", a, b, changed, err)
	}
	var affected []*HChannel
	for _, hch := range w.ctrl.State().Channels() {
		if crossesTrunk(hch.Route, a, b) {
			affected = append(affected, hch)
		}
	}
	sort.Slice(affected, func(i, j int) bool { return affected[i].ID < affected[j].ID })
	remove := make([]core.ChannelID, len(affected))
	reqs := make([]Req, len(affected))
	for i, hch := range affected {
		remove[i] = hch.ID
		reqs[i] = Req{Spec: hch.Spec, Sinks: hch.Sinks, ID: hch.ID, KeepID: true}
	}
	chs, errs := w.admitEach(remove, reqs)
	var sb strings.Builder
	fmt.Fprintf(&sb, "fail %d-%d affected=%d:", a, b, len(affected))
	for i := range reqs {
		if errs[i] != nil {
			fmt.Fprintf(&sb, " %d=rej(%v)", reqs[i].ID, errs[i])
			continue
		}
		if chs[i].ID != reqs[i].ID {
			w.t.Fatalf("re-admission changed channel ID %d to %d", reqs[i].ID, chs[i].ID)
		}
		fmt.Fprintf(&sb, " %d=%v", chs[i].ID, chs[i].Route)
	}
	return sb.String()
}

// repairTrunk restores a trunk. Channels stay where the recovery pass put
// them — repair only re-opens the routes.
func (w *twin) repairTrunk(a, b SwitchID) {
	w.t.Helper()
	if changed, err := w.top.SetLinkUp(a, b, true); err != nil || !changed {
		w.t.Fatalf("repair %d-%d: %v, %v", a, b, changed, err)
	}
}

// replayChurn drives the full seeded workload through a controller and
// its oracle in lockstep and returns the event log.
func replayChurn(t *testing.T, seed int64) string {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	w := newTwin(t, ringFabric(), Config{DPS: HADPS{}})

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
			chs, errs := w.admitEach(nil, []Req{{Spec: spec, Sinks: sinks}})
			if errs[0] != nil {
				rejected++
				fmt.Fprintf(&log, "est %v sinks=%v rej(%v)\n", spec, sinks, errs[0])
			} else {
				live = append(live, chs[0].ID)
				fmt.Fprintf(&log, "est %v sinks=%v id=%d route=%v\n", spec, sinks, chs[0].ID, chs[0].Route)
			}
		}
		// Occasional release keeps headroom so later rounds still admit.
		if len(live) > 6 && rng.Intn(2) == 0 {
			i := rng.Intn(len(live))
			id := live[i]
			live = append(live[:i], live[i+1:]...)
			w.release(id)
			fmt.Fprintf(&log, "rel %d\n", id)
		}
		// Every third round: a down/repair cycle on a random ring trunk.
		if round%3 == 2 {
			tr := trunks[rng.Intn(len(trunks))]
			log.WriteString(w.failTrunk(tr[0], tr[1]) + "\n")
			// Channels the residual ring could not carry are gone; drop
			// them from the live set.
			kept := live[:0]
			for _, id := range live {
				if w.ctrl.State().Get(id) != nil {
					kept = append(kept, id)
				}
			}
			live = kept
			w.repairTrunk(tr[0], tr[1])
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
// byte-identical logs for the same seed, oracle-equivalent decisions
// throughout (the per-step assertions live in the twin).
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

// TestFailoverKeptBackLeavesDisjointRequestAlone is the fabric reproducer
// for a release coupling unrelated decisions, cut down from this replay
// (seed 8): the releases of two failover cycles on trunk 2-3 keep back
// hop vectors, and chan{1→5 C=2 P=100 D=40} on n1→sw0 sw0→sw1 sw1→sw2
// sw2→n5 was refused naming n6→sw2 — an edge of no channel that shares
// an edge with it — because every kept-back channel was recomputed on
// every later decision. It is accepted.
func TestFailoverKeptBackLeavesDisjointRequestAlone(t *testing.T) {
	w := newTwin(t, ringFabric(), Config{DPS: HADPS{}})
	est := func(src core.NodeID, d int64, dst core.NodeID, sinks ...core.NodeID) (*HChannel, error) {
		chs, errs := w.admitEach(nil, []Req{{Spec: core.ChannelSpec{Src: src, Dst: dst, C: 2, P: 100, D: d}, Sinks: sinks}})
		return chs[0], errs[0]
	}
	failover := func() {
		w.failTrunk(2, 3)
		w.repairTrunk(2, 3)
	}
	est(6, 35, 1)
	est(5, 44, 2)
	est(4, 34, 2)
	est(7, 42, 6, 6, 1)
	est(5, 40, 2)
	est(6, 43, 7)
	est(4, 46, 7)
	est(2, 46, 7, 7, 8)
	est(6, 40, 1)
	est(2, 39, 4, 4, 1)
	est(2, 47, 7)
	failover()
	est(6, 46, 3, 3, 7)
	est(6, 39, 1, 1, 3)
	failover()
	ch, err := est(1, 40, 5)
	if err != nil {
		t.Fatalf("request disjoint from every kept-back channel refused: %v", err)
	}
	if got := fmt.Sprint(ch.Route); got != "[n1→sw0 sw0→sw1 sw1→sw2 sw2→n5]" {
		t.Fatalf("request routed over %s", got)
	}
}
