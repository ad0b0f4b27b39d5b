package rtether

import (
	"errors"
	"reflect"
	"strings"
	"testing"
)

// TestEstablishAllStarMatchesSequential verifies the batch API on a star
// network: a feasible batch commits exactly the channels (IDs, budgets)
// that sequential establishment commits.
func TestEstablishAllStarMatchesSequential(t *testing.T) {
	specs := make([]ChannelSpec, 0, 12)
	for i := 0; i < 12; i++ {
		specs = append(specs, ChannelSpec{
			Src: NodeID(i % 4), Dst: NodeID(4 + i%3), C: 2, P: 100, D: 40,
		})
	}
	build := func() *Network {
		n := New(WithADPS())
		for id := NodeID(0); id < 7; id++ {
			n.MustAddNode(id)
		}
		return n
	}

	seq := build()
	var seqChs []*Channel
	for i, s := range specs {
		ch, err := seq.Establish(s)
		if err != nil {
			t.Fatalf("sequential establish %d: %v", i, err)
		}
		seqChs = append(seqChs, ch)
	}

	batch := build()
	chs, err := batch.EstablishAll(specs)
	if err != nil {
		t.Fatalf("EstablishAll: %v", err)
	}
	if len(chs) != len(specs) {
		t.Fatalf("EstablishAll returned %d handles for %d specs", len(chs), len(specs))
	}
	for i, ch := range chs {
		if ch.ID() != seqChs[i].ID() {
			t.Errorf("channel %d: batch ID %d, sequential ID %d", i, ch.ID(), seqChs[i].ID())
		}
		if !reflect.DeepEqual(ch.Budgets(), seqChs[i].Budgets()) {
			t.Errorf("channel %d: batch budgets %v, sequential %v", i, ch.Budgets(), seqChs[i].Budgets())
		}
		if ch.Spec() != specs[i] {
			t.Errorf("channel %d: spec %v, want %v", i, ch.Spec(), specs[i])
		}
	}
	st := batch.AdmissionStats()
	if st.Requests != len(specs) || st.Accepted != len(specs) {
		t.Errorf("batch AdmissionStats = %+v", st)
	}
	// Handles are live: release through one.
	if err := chs[0].Release(); err != nil {
		t.Errorf("release of batch-established channel: %v", err)
	}
}

// TestEstablishAllFabricMatchesSequential verifies the batch API across a
// multi-switch fabric.
func TestEstablishAllFabricMatchesSequential(t *testing.T) {
	specs := []ChannelSpec{
		{Src: 0, Dst: 100, C: 3, P: 100, D: 60},
		{Src: 1, Dst: 101, C: 3, P: 100, D: 60},
		{Src: 100, Dst: 2, C: 3, P: 100, D: 60},
		{Src: 3, Dst: 4, C: 3, P: 100, D: 60},
	}
	build := func() *Network {
		return New(WithTopology(lineTopology(t, 3)), WithHDPS(HADPS()))
	}

	seq := build()
	var seqChs []*Channel
	for i, s := range specs {
		ch, err := seq.Establish(s)
		if err != nil {
			t.Fatalf("sequential establish %d: %v", i, err)
		}
		seqChs = append(seqChs, ch)
	}
	// Budgets must be read after the whole sequence: each establishment
	// may repartition earlier channels (the DPS is a function of the
	// system state).
	var seqBudgets [][]int64
	for _, ch := range seqChs {
		seqBudgets = append(seqBudgets, ch.Budgets())
	}

	batch := build()
	chs, err := batch.EstablishAll(specs)
	if err != nil {
		t.Fatalf("EstablishAll: %v", err)
	}
	for i, ch := range chs {
		if !reflect.DeepEqual(ch.Budgets(), seqBudgets[i]) {
			t.Errorf("channel %d: batch budgets %v, sequential %v", i, ch.Budgets(), seqBudgets[i])
		}
	}
	// The running simulation got the budgets too: traffic meets deadlines.
	for _, ch := range chs {
		if err := ch.Start(0); err != nil {
			t.Fatalf("start: %v", err)
		}
	}
	batch.RunFor(500)
	if misses := batch.Report().TotalMisses(); misses != 0 {
		t.Errorf("batch-established fabric traffic missed %d deadlines", misses)
	}
}

// TestEstablishAllAtomic verifies all-or-nothing semantics on both
// backends: one infeasible member rejects the whole batch, the rejection
// carries the usual AdmissionError diagnostics, and nothing commits.
func TestEstablishAllAtomic(t *testing.T) {
	hog := ChannelSpec{Src: 1, Dst: 2, C: 90, P: 100, D: 190}
	batchSpecs := []ChannelSpec{
		{Src: 1, Dst: 2, C: 3, P: 100, D: 40},
		hog, hog, hog, // three U=0.9 channels on uplink 1 can never fit
	}

	t.Run("star", func(t *testing.T) {
		n := New(WithADPS())
		for id := NodeID(1); id <= 3; id++ {
			n.MustAddNode(id)
		}
		chs, err := n.EstablishAll(batchSpecs)
		if err == nil {
			t.Fatal("infeasible batch accepted")
		}
		if chs != nil {
			t.Fatalf("rejected batch returned handles: %v", chs)
		}
		if !errors.Is(err, ErrInfeasible) {
			t.Fatalf("batch rejection is not ErrInfeasible: %v", err)
		}
		var ae *AdmissionError
		if !errors.As(err, &ae) {
			t.Fatalf("batch rejection is not an *AdmissionError: %v", err)
		}
		if got := len(n.Channels()); got != 0 {
			t.Fatalf("rejected batch left %d channels committed", got)
		}
		// The network still admits sequentially afterwards.
		if _, err := n.Establish(batchSpecs[0]); err != nil {
			t.Fatalf("network wedged after batch rejection: %v", err)
		}
	})

	t.Run("fabric", func(t *testing.T) {
		n := New(WithTopology(lineTopology(t, 2)), WithHDPS(HSDPS()))
		specs := []ChannelSpec{
			{Src: 0, Dst: 100, C: 3, P: 100, D: 60},
			{Src: 1, Dst: 2, C: 90, P: 100, D: 190},
			{Src: 1, Dst: 2, C: 90, P: 100, D: 190},
			{Src: 1, Dst: 2, C: 90, P: 100, D: 190},
		}
		if _, err := n.EstablishAll(specs); err == nil {
			t.Fatal("infeasible batch accepted")
		} else if !errors.Is(err, ErrInfeasible) {
			t.Fatalf("batch rejection is not ErrInfeasible: %v", err)
		}
		if got := len(n.Channels()); got != 0 {
			t.Fatalf("rejected batch left %d channels committed", got)
		}
	})
}

// TestEstablishAllInvalidSpec verifies a validation failure inside a
// batch surfaces as the plain validation error, not a feasibility one.
func TestEstablishAllInvalidSpec(t *testing.T) {
	n := New()
	n.MustAddNode(1)
	n.MustAddNode(2)
	_, err := n.EstablishAll([]ChannelSpec{
		{Src: 1, Dst: 2, C: 3, P: 100, D: 40},
		{Src: 1, Dst: 1, C: 3, P: 100, D: 40}, // self-loop
	})
	if err == nil {
		t.Fatal("batch with invalid spec accepted")
	}
	if errors.Is(err, ErrInfeasible) {
		t.Fatalf("validation failure misreported as infeasibility: %v", err)
	}
	if got := len(n.Channels()); got != 0 {
		t.Fatalf("rejected batch left %d channels committed", got)
	}
}

// TestFabricAllMissChannelInReport pins the metrics-guard fix: a fabric
// channel whose only measurements are deadline misses must still appear
// in Report() and count toward TotalMisses(), not vanish because nothing
// was "delivered" on time yet.
func TestFabricAllMissChannelInReport(t *testing.T) {
	n := New(WithTopology(lineTopology(t, 2)), WithHDPS(HSDPS()))
	ch, err := n.Establish(ChannelSpec{Src: 0, Dst: 100, C: 3, P: 100, D: 60})
	if err != nil {
		t.Fatal(err)
	}
	fb, ok := n.be.(*fabricBackend)
	if !ok {
		t.Fatalf("expected fabric backend, got %T", n.be)
	}
	// The simulation holds the channel from its first Start on. Force
	// the all-miss accounting shape directly on its metrics: misses
	// recorded, nothing counted as delivered.
	if err := ch.Start(0); err != nil {
		t.Fatal(err)
	}
	m := fb.sim.Channel(ch.ID())
	if m == nil {
		t.Fatal("started channel has no simulator metrics")
	}
	m.Misses = 4

	if got := ch.Metrics(); got == nil {
		t.Fatal("all-miss channel's Metrics() is nil")
	} else if got.Misses != 4 {
		t.Fatalf("Metrics().Misses = %d, want 4", got.Misses)
	}
	rep := n.Report()
	if _, ok := rep.Channels[ch.ID()]; !ok {
		t.Fatal("all-miss channel missing from Report()")
	}
	if got := rep.TotalMisses(); got != 4 {
		t.Fatalf("TotalMisses() = %d, want 4", got)
	}
}

// TestGuaranteedDelayNoRoute pins the unroutable-pair fix: with no route
// between the endpoints the guarantee is 0 ("no route"), not a bound
// fabricated from an assumed hop count.
func TestGuaranteedDelayNoRoute(t *testing.T) {
	top := NewTopology()
	for _, sw := range []SwitchID{0, 1, 2} {
		if err := top.AddSwitch(sw); err != nil {
			t.Fatal(err)
		}
	}
	if err := top.Trunk(0, 1); err != nil { // switch 2 stays disconnected
		t.Fatal(err)
	}
	for n, sw := range map[NodeID]SwitchID{1: 0, 2: 1, 3: 2} {
		if err := top.Attach(n, sw); err != nil {
			t.Fatal(err)
		}
	}
	n := New(WithTopology(top), WithPropagation(5))

	routable := ChannelSpec{Src: 1, Dst: 2, C: 3, P: 100, D: 60}
	if got := n.GuaranteedDelay(routable); got != 60+3*5 {
		t.Errorf("routable GuaranteedDelay = %d, want %d", got, 60+3*5)
	}
	unroutable := ChannelSpec{Src: 1, Dst: 3, C: 3, P: 100, D: 60}
	if got := n.GuaranteedDelay(unroutable); got != 0 {
		t.Errorf("unroutable GuaranteedDelay = %d, want 0 (no route)", got)
	}
	unknown := ChannelSpec{Src: 1, Dst: 99, C: 3, P: 100, D: 60}
	if got := n.GuaranteedDelay(unknown); got != 0 {
		t.Errorf("unknown-destination GuaranteedDelay = %d, want 0 (no route)", got)
	}
}

// TestFabricReleaseDivergencePanics pins the release error contract: if
// the admission state releases a started channel the running simulation
// has lost, the backend must fail loudly (matching establish's Install
// contract) instead of silently letting the two diverge.
func TestFabricReleaseDivergencePanics(t *testing.T) {
	n := New(WithTopology(lineTopology(t, 2)), WithHDPS(HSDPS()))
	ch, err := n.Establish(ChannelSpec{Src: 0, Dst: 100, C: 3, P: 100, D: 60})
	if err != nil {
		t.Fatal(err)
	}
	if err := ch.Start(0); err != nil { // the simulation holds it from here on
		t.Fatal(err)
	}
	fb := n.be.(*fabricBackend)
	if err := fb.sim.Remove(ch.ID()); err != nil { // force divergence
		t.Fatal(err)
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("release of a sim-unknown channel did not panic")
		}
		if !strings.Contains(r.(string), "diverged") && !strings.Contains(r.(string), "simulation") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	_ = ch.Release()
}

// TestReleaseAllIsOneDecision releases six of eight ADPS star channels
// through ReleaseAll, whose list also repeats one of them and names a
// seventh released before and a handle of another network: the six go
// in one repartition pass, the rest is skipped, and the eighth keeps its
// handle open, as does the other network's.
func TestReleaseAllIsOneDecision(t *testing.T) {
	build := func() (*Network, []*Channel) {
		n := New(WithADPS())
		for id := NodeID(0); id < 4; id++ {
			n.MustAddNode(id)
		}
		specs := make([]ChannelSpec, 8)
		for i := range specs {
			specs[i] = ChannelSpec{Src: NodeID(i % 2), Dst: NodeID(2 + i%2), C: 1, P: 100, D: 40}
		}
		chs, err := n.EstablishAll(specs)
		if err != nil {
			t.Fatal(err)
		}
		return n, chs
	}
	n, chs := build()
	_, foreign := build()
	if err := chs[6].Release(); err != nil {
		t.Fatal(err)
	}
	before := n.AdmissionStats()
	if err := n.ReleaseAll(append(chs[:6:6], chs[2], chs[6], foreign[7])); err != nil {
		t.Fatalf("ReleaseAll: %v", err)
	}
	after := n.AdmissionStats()
	if reparts, released := after.Repartitions-before.Repartitions, after.Released-before.Released; reparts != 1 || released != 6 {
		t.Fatalf("ReleaseAll ran %d repartitions releasing %d channels, want 1 and 6", reparts, released)
	}
	if got, want := n.Channels(), []ChannelID{chs[7].ID()}; !reflect.DeepEqual(got, want) {
		t.Fatalf("channels left %v, want %v", got, want)
	}
	if n.Lookup(chs[0].ID()) != nil || n.Lookup(chs[7].ID()) == nil || len(foreign[7].Budgets()) == 0 {
		t.Fatal("ReleaseAll closed the wrong handles")
	}
}
