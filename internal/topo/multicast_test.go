package topo

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/edf"
)

// mcastFabric is the tree-shaped evaluation fabric: a source switch with
// two subtrees, so multicast routes share a real trunk prefix.
//
//	      sw0 ── n1 (source side)
//	     /   \
//	   sw1   sw2
//	  /   \     \
//	sw3   sw4   sw5
//
// Nodes: n1@sw0, n2@sw3, n3@sw4, n4@sw5, n5@sw1.
func mcastFabric(t testing.TB) *Topology {
	top := NewTopology()
	for s := SwitchID(0); s <= 5; s++ {
		if err := top.AddSwitch(s); err != nil {
			t.Fatalf("AddSwitch: %v", err)
		}
	}
	for _, tr := range [][2]SwitchID{{0, 1}, {0, 2}, {1, 3}, {1, 4}, {2, 5}} {
		if err := top.ConnectSwitches(tr[0], tr[1]); err != nil {
			t.Fatalf("ConnectSwitches: %v", err)
		}
	}
	for n, s := range map[core.NodeID]SwitchID{1: 0, 2: 3, 3: 4, 4: 5, 5: 1} {
		if err := top.AttachNode(n, s); err != nil {
			t.Fatalf("AttachNode: %v", err)
		}
	}
	return top
}

func TestMulticastTreeSharedPrefixAndDeterminism(t *testing.T) {
	top := mcastFabric(t)
	sinks := []core.NodeID{2, 3, 4}
	route, parents, leaves, err := top.MulticastTree(1, sinks)
	if err != nil {
		t.Fatalf("MulticastTree: %v", err)
	}
	// Paths: n1→sw0→sw1→sw3→n2 (4 edges), n1→sw0→sw1→sw4→n3 (shares
	// n1→sw0 and sw0→sw1), n1→sw0→sw2→sw5→n4 (shares n1→sw0). Union:
	// 9 edges, versus 4+4+4 = 12 on independent per-sink paths.
	if len(route) != 9 {
		t.Fatalf("tree has %d edges, want 9 (shared prefix must dedupe): %v", len(route), route)
	}
	if parents[0] != -1 {
		t.Fatalf("root parent = %d, want -1", parents[0])
	}
	for i, p := range parents {
		if i > 0 && (p < 0 || p >= i) {
			t.Fatalf("parents[%d] = %d violates parents[i] < i", i, p)
		}
	}
	if len(leaves) != len(sinks) {
		t.Fatalf("%d leaves for %d sinks", len(leaves), len(sinks))
	}
	for k, leaf := range leaves {
		e := route[leaf]
		if e.To.Switch || core.NodeID(e.To.ID) != sinks[k] {
			t.Fatalf("leaf %d delivers to %v, want node %d", k, e.To, sinks[k])
		}
	}
	// Determinism: same call, same answer; and permuting the sink list
	// yields the same edge set (different order/leaf mapping allowed).
	r2, p2, l2, err := top.MulticastTree(1, sinks)
	if err != nil {
		t.Fatalf("MulticastTree (repeat): %v", err)
	}
	if !reflect.DeepEqual(route, r2) || !reflect.DeepEqual(parents, p2) || !reflect.DeepEqual(leaves, l2) {
		t.Fatalf("MulticastTree is not deterministic")
	}
	r3, _, _, err := top.MulticastTree(1, []core.NodeID{4, 2, 3})
	if err != nil {
		t.Fatalf("MulticastTree (permuted): %v", err)
	}
	set := func(edges []Edge) map[Edge]bool {
		m := make(map[Edge]bool, len(edges))
		for _, e := range edges {
			m[e] = true
		}
		return m
	}
	if !reflect.DeepEqual(set(route), set(r3)) {
		t.Fatalf("edge set depends on sink order:\n%v\nvs\n%v", route, r3)
	}
}

func TestMulticastTreeErrors(t *testing.T) {
	top := mcastFabric(t)
	if _, _, _, err := top.MulticastTree(1, []core.NodeID{1}); err == nil {
		t.Fatalf("self-sink accepted")
	}
	if _, _, _, err := top.MulticastTree(1, []core.NodeID{99}); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("unknown sink: got %v, want ErrUnknownNode", err)
	}
	if _, _, _, err := top.MulticastTree(99, []core.NodeID{2}); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("unknown source: got %v, want ErrUnknownNode", err)
	}
	// A disconnected island is unreachable.
	if err := top.AddSwitch(9); err != nil {
		t.Fatalf("AddSwitch: %v", err)
	}
	if err := top.AttachNode(9, 9); err != nil {
		t.Fatalf("AttachNode: %v", err)
	}
	if _, _, _, err := top.MulticastTree(1, []core.NodeID{2, 9}); !errors.Is(err, ErrNoRoute) {
		t.Fatalf("unreachable sink: got %v, want ErrNoRoute", err)
	}
}

// TestSplitDeadlineTreeInvariants fuzzes the tree partitioner over
// seeded random trees and weights: every root→leaf path must sum to
// exactly D and every edge must get at least C.
func TestSplitDeadlineTreeInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	top := mcastFabric(t)
	allSinks := []core.NodeID{2, 3, 4, 5}
	for iter := 0; iter < 200; iter++ {
		rng.Shuffle(len(allSinks), func(i, j int) { allSinks[i], allSinks[j] = allSinks[j], allSinks[i] })
		sinks := append([]core.NodeID(nil), allSinks[:rng.Intn(len(allSinks))+1]...)
		route, parents, leaves, err := top.MulticastTree(1, sinks)
		if err != nil {
			t.Fatalf("MulticastTree: %v", err)
		}
		c := int64(rng.Intn(3) + 1)
		maxDepth := 0
		for _, leaf := range leaves {
			d := 0
			for e := leaf; e >= 0; e = parents[e] {
				d++
			}
			if d > maxDepth {
				maxDepth = d
			}
		}
		d := int64(maxDepth)*c + int64(rng.Intn(25))
		ch := &HChannel{
			Spec:    core.ChannelSpec{Src: 1, Dst: sinks[0], C: c, P: 100, D: d},
			Route:   route,
			Parents: parents,
			Sinks:   sinks,
			Leaves:  leaves,
		}
		weights := make([]int64, len(route))
		for i := range weights {
			weights[i] = int64(rng.Intn(5)) // zeros allowed
		}
		v := splitDeadlineTree(nil, ch, weights)
		for i, b := range v {
			if b < c {
				t.Fatalf("iter %d: edge %d budget %d < C=%d (v=%v, parents=%v)", iter, i, b, c, v, parents)
			}
		}
		for k := range sinks {
			var sum int64
			for _, e := range ch.PathTo(k) {
				sum += v[e]
			}
			if sum != d {
				t.Fatalf("iter %d: path to sink %d sums to %d, want D=%d (v=%v)", iter, sinks[k], sum, d, v)
			}
		}
	}
}

// fabricRef is the sequential per-branch reference for fabric multicast
// admission under H-SDPS: the tree vector is fixed by spec and tree
// shape, each branch's not-yet-added edges gain their task in root→leaf
// order with an EDF test after every addition, and the first failure
// rolls back everything.
type fabricRef struct {
	top   *Topology
	tasks map[Edge][]edf.Task
}

func (r *fabricRef) admitMulticast(spec core.MulticastSpec) ([]int64, bool) {
	route, parents, leaves, err := r.top.MulticastTree(spec.Src, spec.Sinks)
	if err != nil {
		return nil, false
	}
	ch := &HChannel{Spec: spec.ChannelSpec(), Route: route, Parents: parents, Sinks: spec.Sinks, Leaves: leaves}
	for _, leaf := range leaves {
		d := 0
		for e := leaf; e >= 0; e = parents[e] {
			d++
		}
		if spec.D < int64(d)*spec.C {
			return nil, false
		}
	}
	v := HSDPS{}.Split(ch, nil, nil)
	var adds []Edge
	added := make(map[int]bool)
	ok := true
branches:
	for k := range spec.Sinks {
		for _, e := range ch.PathTo(k) {
			if added[e] {
				continue // shared prefix: one task, not one per sink
			}
			added[e] = true
			edge := route[e]
			r.tasks[edge] = append(r.tasks[edge], edf.Task{C: spec.C, P: spec.P, D: v[e]})
			adds = append(adds, edge)
			if !edf.Test(r.tasks[edge], edf.Options{}).OK() {
				ok = false
				break branches
			}
		}
	}
	if !ok {
		for i := len(adds) - 1; i >= 0; i-- {
			s := r.tasks[adds[i]]
			r.tasks[adds[i]] = s[:len(s)-1]
		}
		return nil, false
	}
	return v, true
}

// edgeFingerprint renders the admission-relevant fabric state for
// bit-identity assertions across rejected requests.
func edgeFingerprint(st *State) string {
	var b strings.Builder
	fmt.Fprintf(&b, "len=%d next=%d\n", st.Len(), st.k.NextID())
	for _, e := range st.Edges() {
		fmt.Fprintf(&b, "%v load=%d tasks=%v\n", e, st.LinkLoad(e), st.TasksOn(e))
	}
	return b.String()
}

// TestRequestMulticastFabricDecisionEquivalence drives a seeded random
// multicast workload through the fabric controller under H-SDPS and
// checks every verdict and committed hop vector against the sequential
// per-branch reference, plus bit-identity of the committed state across
// each rejection.
func TestRequestMulticastFabricDecisionEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	top := mcastFabric(t)
	c := NewController(top, Config{DPS: HSDPS{}})
	ref := &fabricRef{top: top, tasks: make(map[Edge][]edf.Task)}
	allSinks := []core.NodeID{2, 3, 4, 5}
	accepted, rejected := 0, 0
	for i := 0; i < 200; i++ {
		rng.Shuffle(len(allSinks), func(a, b int) { allSinks[a], allSinks[b] = allSinks[b], allSinks[a] })
		sinks := append([]core.NodeID(nil), allSinks[:rng.Intn(len(allSinks))+1]...)
		cap := int64(rng.Intn(2) + 1)
		spec := core.MulticastSpec{
			Src:   1,
			Sinks: sinks,
			C:     cap,
			P:     int64(rng.Intn(30) + 12),
			D:     4*cap + int64(rng.Intn(30)),
		}
		before := edgeFingerprint(c.State())
		ch, err := c.RequestMulticast(spec)
		wantVec, wantOK := ref.admitMulticast(spec)
		if wantOK != (err == nil) {
			t.Fatalf("request %d %v: controller err=%v, reference ok=%v", i, spec, err, wantOK)
		}
		if err == nil {
			if !reflect.DeepEqual(ch.Hops, wantVec) {
				t.Fatalf("request %d %v: hops %v, reference %v", i, spec, ch.Hops, wantVec)
			}
			accepted++
			continue
		}
		if after := edgeFingerprint(c.State()); after != before {
			t.Fatalf("request %d: rejected tree mutated fabric state:\nbefore:\n%s\nafter:\n%s", i, before, after)
		}
		rejected++
	}
	if accepted == 0 || rejected == 0 {
		t.Fatalf("degenerate run: accepted=%d rejected=%d — want both outcomes exercised", accepted, rejected)
	}
}

// TestRequestMulticastSharedTrunkOneTask pins the tentpole property on
// the fabric: a shared trunk carries one task for the whole tree.
func TestRequestMulticastSharedTrunkOneTask(t *testing.T) {
	top := mcastFabric(t)
	c := NewController(top, Config{DPS: HSDPS{}})
	// Sinks 2 (via sw1→sw3) and 3 (via sw1→sw4) share n1→sw0 and sw0→sw1.
	ch, err := c.RequestMulticast(core.MulticastSpec{Src: 1, Sinks: []core.NodeID{2, 3}, C: 2, P: 50, D: 20})
	if err != nil {
		t.Fatalf("RequestMulticast: %v", err)
	}
	trunk := Edge{From: SwitchEnd(0), To: SwitchEnd(1)}
	if got := len(c.State().TasksOn(trunk)); got != 1 {
		t.Fatalf("shared trunk carries %d tasks, want 1", got)
	}
	for k := range ch.Sinks {
		var sum int64
		for _, e := range ch.PathTo(k) {
			sum += ch.Hops[e]
		}
		if sum != 20 {
			t.Fatalf("path to sink %d sums to %d, want 20 (hops=%v)", ch.Sinks[k], sum, ch.Hops)
		}
	}
	if err := c.Release(ch.ID); err != nil {
		t.Fatalf("Release: %v", err)
	}
	if got := len(c.State().TasksOn(trunk)); got != 0 {
		t.Fatalf("trunk still carries %d tasks after release", got)
	}
}

// TestRequestMulticastHADPS smoke-checks the load-weighted tree variant:
// admission succeeds and the tree invariants hold under H-ADPS too.
func TestRequestMulticastHADPS(t *testing.T) {
	top := mcastFabric(t)
	c := NewController(top, Config{DPS: HADPS{}})
	// Preload the sw0→sw2 trunk so weights are non-uniform.
	if _, err := c.Request(core.ChannelSpec{Src: 1, Dst: 4, C: 1, P: 40, D: 24}); err != nil {
		t.Fatalf("preload: %v", err)
	}
	ch, err := c.RequestMulticast(core.MulticastSpec{Src: 1, Sinks: []core.NodeID{2, 4}, C: 2, P: 60, D: 30})
	if err != nil {
		t.Fatalf("RequestMulticast: %v", err)
	}
	for k := range ch.Sinks {
		var sum int64
		for _, e := range ch.PathTo(k) {
			if ch.Hops[e] < 2 {
				t.Fatalf("edge %d budget %d < C", e, ch.Hops[e])
			}
			sum += ch.Hops[e]
		}
		if sum != 30 {
			t.Fatalf("path to sink %d sums to %d, want 30", ch.Sinks[k], sum)
		}
	}
}

// TestRequestMulticastDeadlineTooShort rejects before touching state
// when D cannot cover the deepest root→leaf path.
func TestRequestMulticastDeadlineTooShort(t *testing.T) {
	top := mcastFabric(t)
	c := NewController(top, Config{DPS: HSDPS{}})
	before := edgeFingerprint(c.State())
	// Deepest path to sink 2 has 4 edges; D = 7 < 4*2.
	_, err := c.RequestMulticast(core.MulticastSpec{Src: 1, Sinks: []core.NodeID{2}, C: 2, P: 50, D: 7})
	if !errors.Is(err, ErrDeadlineTooShortForRoute) {
		t.Fatalf("got %v, want ErrDeadlineTooShortForRoute", err)
	}
	if after := edgeFingerprint(c.State()); after != before {
		t.Fatalf("early rejection mutated state")
	}
}
