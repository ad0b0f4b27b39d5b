package rtether

import (
	"errors"
	"slices"
	"testing"
)

// lineTopology builds k switches in a chain with six nodes on each end
// switch: 0..5 on the first, 100..105 on the last.
func lineTopology(t *testing.T, k int) *Topology {
	t.Helper()
	top := NewTopology()
	for i := 0; i < k; i++ {
		if err := top.AddSwitch(SwitchID(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i < k; i++ {
		if err := top.Trunk(SwitchID(i-1), SwitchID(i)); err != nil {
			t.Fatal(err)
		}
	}
	for n := NodeID(0); n < 6; n++ {
		if err := top.Attach(n, 0); err != nil {
			t.Fatal(err)
		}
	}
	for n := NodeID(100); n < 106; n++ {
		if err := top.Attach(n, SwitchID(k-1)); err != nil {
			t.Fatal(err)
		}
	}
	return top
}

func TestTopologyBuilderValidates(t *testing.T) {
	top := NewTopology()
	if err := top.AddSwitch(0); err != nil {
		t.Fatal(err)
	}
	if err := top.AddSwitch(0); err == nil {
		t.Error("duplicate switch accepted")
	}
	if err := top.Trunk(0, 7); err == nil {
		t.Error("trunk to unknown switch accepted")
	}
	if err := top.Attach(1, 7); err == nil {
		t.Error("attach to unknown switch accepted")
	}
	if err := top.Attach(1, 0); err != nil {
		t.Fatal(err)
	}
	if err := top.Attach(1, 0); err == nil {
		t.Error("duplicate attachment accepted")
	}
	if got := top.Switches(); len(got) != 1 || got[0] != 0 {
		t.Errorf("Switches() = %v", got)
	}
	if got := top.Nodes(); len(got) != 1 || got[0] != 1 {
		t.Errorf("Nodes() = %v", got)
	}
}

func TestSingleSwitchTopologyIsStar(t *testing.T) {
	top := NewTopology()
	if err := top.AddSwitch(0); err != nil {
		t.Fatal(err)
	}
	for n := NodeID(1); n <= 3; n++ {
		if err := top.Attach(n, 0); err != nil {
			t.Fatal(err)
		}
	}
	net := New(WithTopology(top), WithADPS())
	// The degenerate star keeps the full wire protocol: best-effort
	// traffic works and establishment consumes virtual time.
	ch, err := net.Establish(ChannelSpec{Src: 1, Dst: 2, C: 3, P: 100, D: 40})
	if err != nil {
		t.Fatal(err)
	}
	if net.Now() == 0 {
		t.Error("wire establishment consumed no virtual time")
	}
	if !net.SendBestEffort(1, 3, []byte("hi")) {
		t.Error("best-effort send failed on degenerate star")
	}
	if b := ch.Budgets(); len(b) != 2 {
		t.Errorf("budgets = %v, want two hops", b)
	}
	// Nodes may still be added after New on a star.
	if err := net.AddNode(9); err != nil {
		t.Errorf("AddNode on degenerate star: %v", err)
	}
}

func TestFabricNetworkLifecycle(t *testing.T) {
	top := lineTopology(t, 3)
	net := New(WithTopology(top), WithHDPS(HADPS()))

	hops, err := top.RouteLength(0, 100)
	if err != nil || hops != 4 {
		t.Fatalf("RouteLength = %d,%v, want 4", hops, err)
	}
	spec := ChannelSpec{Src: 0, Dst: 100, C: 2, P: 50, D: 40}
	ch, err := net.Establish(spec)
	if err != nil {
		t.Fatal(err)
	}
	budgets := ch.Budgets()
	if len(budgets) != 4 {
		t.Fatalf("budgets = %v, want 4 hops", budgets)
	}
	var sum int64
	for _, b := range budgets {
		if b < spec.C {
			t.Errorf("hop budget %d below C", b)
		}
		sum += b
	}
	if sum != spec.D {
		t.Errorf("budgets sum %d != D %d", sum, spec.D)
	}

	if err := ch.Start(0); err != nil {
		t.Fatal(err)
	}
	net.RunFor(2000)
	m := ch.Metrics()
	if m == nil || m.Delivered < 70 {
		t.Fatalf("metrics = %+v, want ~80 frames delivered", m)
	}
	if m.Misses != 0 {
		t.Errorf("misses = %d", m.Misses)
	}
	if m.Delays.Max() > ch.GuaranteedDelay() {
		t.Errorf("worst delay %d beyond guarantee %d", m.Delays.Max(), ch.GuaranteedDelay())
	}

	// Stop, let in-flight frames drain, confirm the generator is quiet,
	// then restart.
	if err := ch.Stop(); err != nil {
		t.Fatal(err)
	}
	net.RunFor(100) // longer than D: released frames finish delivery
	before := ch.Metrics().Delivered
	net.RunFor(500)
	if got := ch.Metrics().Delivered; got != before {
		t.Errorf("stopped channel delivered %d more frames", got-before)
	}
	if err := ch.Start(0); err != nil {
		t.Fatal(err)
	}
	net.RunFor(500)
	if got := ch.Metrics().Delivered; got <= before {
		t.Error("restarted channel delivered nothing")
	}

	if err := ch.Release(); err != nil {
		t.Fatal(err)
	}
	if len(net.Channels()) != 0 {
		t.Error("channel survived release")
	}
	if err := ch.Release(); !errors.Is(err, ErrChannelClosed) {
		t.Errorf("double release = %v, want ErrChannelClosed", err)
	}
	if err := ch.Start(0); !errors.Is(err, ErrChannelClosed) {
		t.Errorf("Start after release = %v, want ErrChannelClosed", err)
	}
}

func TestFabricNetworkRestrictions(t *testing.T) {
	top := lineTopology(t, 2)
	net := New(WithTopology(top))
	if err := net.AddNode(42); err == nil {
		t.Error("AddNode on a multi-switch network accepted")
	}
	if net.SendBestEffort(0, 100, []byte("x")) {
		t.Error("best-effort send accepted on a fabric")
	}
	if !net.SetTracer(NewRingTracer(8)) {
		t.Error("fabric rejects trace support; both backends stream events now")
	}
	if err := net.WriteSnapshot(nil); err == nil {
		t.Error("fabric snapshot accepted")
	}
}

func TestFabricLinkLoads(t *testing.T) {
	top := lineTopology(t, 2)
	net := New(WithTopology(top))
	for i := 0; i < 3; i++ {
		if _, err := net.Establish(ChannelSpec{Src: 0, Dst: NodeID(100 + i), C: 3, P: 300, D: 60}); err != nil {
			t.Fatal(err)
		}
	}
	if got := net.LinkLoadUp(0); got != 3 {
		t.Errorf("LinkLoadUp(0) = %d, want 3", got)
	}
	if got := net.LinkLoadDown(100); got != 1 {
		t.Errorf("LinkLoadDown(100) = %d, want 1", got)
	}
	if got := net.LinkLoadUp(5); got != 0 {
		t.Errorf("LinkLoadUp(5) = %d, want 0", got)
	}
}

func TestFabricRepartitionsOnLoad(t *testing.T) {
	// Under H-ADPS the trunk's budget share grows with its load, so a
	// channel's budgets may change as later channels are admitted.
	top := lineTopology(t, 2)
	net := New(WithTopology(top), WithHDPS(HADPS()))
	first, err := net.Establish(ChannelSpec{Src: 0, Dst: 100, C: 3, P: 300, D: 60})
	if err != nil {
		t.Fatal(err)
	}
	initial := append([]int64(nil), first.Budgets()...)
	for i := 1; i < 6; i++ {
		if _, err := net.Establish(ChannelSpec{Src: NodeID(i), Dst: NodeID(100 + i), C: 3, P: 300, D: 60}); err != nil {
			t.Fatal(err)
		}
	}
	final := first.Budgets()
	if len(initial) != 3 || len(final) != 3 {
		t.Fatalf("budgets %v → %v, want 3 hops", initial, final)
	}
	if final[1] <= initial[1] {
		t.Errorf("trunk budget did not grow with load: %v → %v", initial, final)
	}
	var sum int64
	for _, b := range final {
		sum += b
	}
	if sum != 60 {
		t.Errorf("repartitioned budgets sum %d != 60", sum)
	}
}

// TestFabricShaperFollowsARepartition checks that a channel carrying
// traffic follows its budgets when later admissions move them: under
// H-ADPS the trunk's share grows with its load, and every release-guard
// hold from then on lasts until release plus the new cumulative budget of
// the hop the frame has just completed, a frame in flight included.
func TestFabricShaperFollowsARepartition(t *testing.T) {
	net := New(WithTopology(lineTopology(t, 2)), WithHDPS(HADPS()))
	tr := NewRingTracer(1024)
	net.SetTracer(tr)
	ch, err := net.Establish(ChannelSpec{Src: 0, Dst: 100, C: 1, P: 50, D: 40})
	if err != nil {
		t.Fatal(err)
	}
	if err := ch.Start(0); err != nil {
		t.Fatal(err)
	}
	net.RunFor(105) // the frame released at 100 waits out its first hop
	before := slices.Clone(ch.Budgets())
	for i := 1; i < 6; i++ {
		if _, err := net.Establish(ChannelSpec{Src: NodeID(i), Dst: NodeID(100 + i), C: 3, P: 300, D: 60}); err != nil {
			t.Fatal(err)
		}
	}
	after := ch.Budgets()
	if slices.Equal(before, after) {
		t.Fatalf("budgets did not move: %v", after)
	}
	t.Logf("budgets %v → %v", before, after)
	moved := net.Now()
	net.RunFor(200)

	release, hop, checked := int64(-1), 0, 0
	for _, e := range tr.Events() {
		if e.Channel != ch.ID() {
			continue
		}
		switch e.Kind {
		case EvRelease:
			release, hop = e.At, 0
		case EvShaperHold:
			if e.At >= moved {
				want := release
				for _, b := range after[:hop+1] {
					want += b
				}
				if e.Value != want {
					t.Errorf("hold at %d of the frame released at %d, hop %d: until %d, want %d (budgets %v)",
						e.At, release, hop, e.Value, want, after)
				}
				checked++
			}
			hop++
		}
	}
	if checked < 2*4 {
		t.Fatalf("checked %d holds after the move, want both guarded hops of at least 4 periods", checked)
	}
}

func TestFabricStopStartWhileArmed(t *testing.T) {
	// A Stop immediately followed by Start from inside the run must not
	// resurrect the superseded release event: before the generation guard
	// the stale event injected frames on the detached cadence and then
	// re-armed in the past, panicking the engine.
	top := lineTopology(t, 2)
	net := New(WithTopology(top))
	ch, err := net.Establish(ChannelSpec{Src: 0, Dst: 100, C: 2, P: 50, D: 40})
	if err != nil {
		t.Fatal(err)
	}
	if err := ch.Start(0); err != nil {
		t.Fatal(err)
	}
	net.Schedule(125, func() { // between the releases at 100 and 150
		if err := ch.Stop(); err != nil {
			t.Error(err)
		}
		if err := ch.Start(5); err != nil {
			t.Error(err)
		}
	})
	net.RunFor(1000)
	m := ch.Metrics()
	if m == nil || m.Delivered == 0 {
		t.Fatal("no frames delivered across the restart")
	}
	if m.Misses != 0 {
		t.Errorf("restart produced %d spurious misses", m.Misses)
	}
}

func TestFabricDeterministicRuns(t *testing.T) {
	run := func() int64 {
		top := NewTopology()
		top.AddSwitch(0)
		top.AddSwitch(1)
		top.Trunk(0, 1)
		for n := NodeID(0); n < 4; n++ {
			top.Attach(n, 0)
		}
		for n := NodeID(100); n < 104; n++ {
			top.Attach(n, 1)
		}
		net := New(WithTopology(top), WithHDPS(HADPS()))
		var chans []*Channel
		for i := 0; i < 8; i++ {
			ch, err := net.Establish(ChannelSpec{
				Src: NodeID(i % 4), Dst: NodeID(100 + i%4), C: 2, P: 60, D: 42})
			if err != nil {
				continue
			}
			chans = append(chans, ch)
		}
		for i, ch := range chans {
			if err := ch.Start(int64(i * 3)); err != nil {
				t.Fatal(err)
			}
		}
		net.RunFor(3000)
		rep := net.Report()
		_, worst := rep.WorstDelay()
		return rep.TotalDelivered()*1000 + worst
	}
	if a, b := run(), run(); a != b {
		t.Errorf("fabric runs diverged: %d vs %d", a, b)
	}
}
