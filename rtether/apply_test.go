package rtether

import (
	"errors"
	"slices"
	"testing"
)

// TestReconfigureKeepsIDOrEverything reconfigures a running channel on a
// star and on a fabric: an accepted change keeps the ID and the handle
// and moves the traffic to the new contract with its measurements kept;
// a refused one changes nothing at all. A change of source node or of
// kind is refused before admission.
func TestReconfigureKeepsIDOrEverything(t *testing.T) {
	for name, build := range map[string]func(*testing.T) *Network{
		"star": func(t *testing.T) *Network {
			net := New(WithADPS())
			for n := NodeID(1); n <= 4; n++ {
				net.MustAddNode(n)
			}
			return net
		},
		"fabric": func(t *testing.T) *Network { return New(WithTopology(ringTopology(t)), WithHDPS(HADPS())) },
	} {
		t.Run(name, func(t *testing.T) {
			net := build(t)
			defer net.Close()
			ch, err := net.Establish(ChannelSpec{Src: 1, Dst: 2, C: 2, P: 10, D: 40})
			if err != nil {
				t.Fatal(err)
			}
			// The filler holds 0.7 of node 1's uplink.
			if _, err := net.Establish(ChannelSpec{Src: 1, Dst: 4, C: 7, P: 10, D: 40}); err != nil {
				t.Fatal(err)
			}
			if err := ch.Start(0); err != nil {
				t.Fatal(err)
			}
			net.RunFor(200)
			delivered := ch.Metrics().Delivered

			grown := ChannelSpec{Src: 1, Dst: 2, C: 3, P: 10, D: 30}
			if err := ch.Reconfigure(EstablishReq{Spec: grown}); err != nil {
				t.Fatalf("reconfigure within capacity: %v", err)
			}
			if ch.Spec() != grown || net.Lookup(ch.ID()) != ch || sum(ch.Budgets()) != 30 {
				t.Fatalf("after reconfigure: spec %v, budgets %v, handle kept %v", ch.Spec(), ch.Budgets(), net.Lookup(ch.ID()) == ch)
			}
			net.RunFor(200)
			if m := ch.Metrics(); m.Delivered < delivered+3*15 || m.Misses != 0 {
				t.Fatalf("traffic after reconfigure: %+v, want the new contract's frames on top of %d and no miss", m, delivered)
			}

			before, budgets := ch.Spec(), ch.Budgets()
			err = ch.Reconfigure(EstablishReq{Spec: ChannelSpec{Src: 1, Dst: 2, C: 4, P: 10, D: 40}})
			var ae *AdmissionError
			if !errors.As(err, &ae) {
				t.Fatalf("reconfigure past capacity = %v, want an AdmissionError", err)
			}
			if ch.Spec() != before || !slices.Equal(ch.Budgets(), budgets) || net.Lookup(ch.ID()) != ch {
				t.Fatalf("refused reconfigure changed the channel: spec %v budgets %v, was %v %v", ch.Spec(), ch.Budgets(), before, budgets)
			}
			if err := ch.Reconfigure(EstablishReq{Spec: ChannelSpec{Src: 3, Dst: 2, C: 1, P: 10, D: 40}}); err == nil {
				t.Fatal("reconfigure moved the channel's source")
			}
			if err := ch.Reconfigure(EstablishReq{Spec: before, Sinks: []NodeID{2, 3}}); err == nil {
				t.Fatal("reconfigure turned a unicast channel into a multicast one")
			}
			if ch.Spec() != before || !slices.Equal(ch.Budgets(), budgets) {
				t.Fatalf("refused changes moved the channel: spec %v budgets %v", ch.Spec(), ch.Budgets())
			}
			if err := ch.Release(); err != nil {
				t.Fatal(err)
			}
			if err := ch.Reconfigure(EstablishReq{Spec: before}); !errors.Is(err, ErrChannelClosed) {
				t.Fatalf("reconfigure of a released channel = %v, want ErrChannelClosed", err)
			}
		})
	}
}

// TestReconfigureMulticastSinks moves a multicast tree's sink set with
// one decision: the ID stays, the handle reports the new sinks.
func TestReconfigureMulticastSinks(t *testing.T) {
	net := New(WithTopology(ringTopology(t)), WithHDPS(HADPS()))
	defer net.Close()
	ch, err := net.EstablishMulticast(MulticastSpec{Src: 1, Sinks: []NodeID{3, 5}, C: 1, P: 100, D: 40})
	if err != nil {
		t.Fatal(err)
	}
	if err := ch.Reconfigure(EstablishReq{Spec: ChannelSpec{Src: 1, C: 1, P: 100, D: 40}, Sinks: []NodeID{3, 7}}); err != nil {
		t.Fatalf("moving a sink: %v", err)
	}
	if got := ch.Sinks(); !slices.Equal(got, []NodeID{3, 7}) || ch.Spec().Dst != 3 || net.Lookup(ch.ID()) != ch {
		t.Fatalf("after the move: sinks %v, dst %d", got, ch.Spec().Dst)
	}
	if got := len(net.Channels()); got != 1 {
		t.Fatalf("%d channels established, want the one tree", got)
	}
}

// TestCloseReleasesInOnePass closes a star and a fabric carrying many
// channels: one decision releases them all, so the kernel runs at most
// one repartition pass instead of one per channel.
func TestCloseReleasesInOnePass(t *testing.T) {
	for name, build := range map[string]func(*testing.T) *Network{
		"star": func(*testing.T) *Network {
			net := New(WithADPS())
			for n := NodeID(1); n <= 3; n++ {
				net.MustAddNode(n)
			}
			return net
		},
		"fabric": func(t *testing.T) *Network { return New(WithTopology(ringTopology(t)), WithHDPS(HADPS())) },
	} {
		t.Run(name, func(t *testing.T) {
			net := build(t)
			specs := make([]ChannelSpec, 60)
			for i := range specs {
				specs[i] = ChannelSpec{Src: 1, Dst: NodeID(2 + i%2), C: 1, P: 1000, D: 400}
			}
			if _, err := net.EstablishAll(specs); err != nil {
				t.Fatal(err)
			}
			before := net.AdmissionStats()
			if err := net.Close(); err != nil {
				t.Fatal(err)
			}
			after := net.AdmissionStats()
			if got := after.Repartitions - before.Repartitions; got > 1 {
				t.Fatalf("Close of %d channels ran %d repartition passes, want at most 1", len(specs), got)
			}
			if after.Released != len(specs) || len(net.Channels()) != 0 {
				t.Fatalf("after Close: %d released, %d channels left", after.Released, len(net.Channels()))
			}
		})
	}
}

// TestFailoverRingOnePass fails the 0-1 trunk of a 4-switch ring under
// 1000 crossing channels, the shape of the benchmark's failover: release
// and re-admission are one pass, so the kernel runs at most two
// repartition passes (one when the whole group fits) instead of one per
// channel plus one, and every channel comes back rerouted.
func TestFailoverRingOnePass(t *testing.T) {
	top := NewTopology()
	for s := SwitchID(0); s < 4; s++ {
		if err := top.AddSwitch(s); err != nil {
			t.Fatal(err)
		}
	}
	for _, tr := range [][2]SwitchID{{0, 1}, {1, 2}, {2, 3}, {3, 0}} {
		if err := top.Trunk(tr[0], tr[1]); err != nil {
			t.Fatal(err)
		}
	}
	for i := NodeID(1); i <= 100; i++ {
		if err := top.Attach(i, 0); err != nil {
			t.Fatal(err)
		}
		if err := top.Attach(1000+i, 1); err != nil {
			t.Fatal(err)
		}
	}
	net := New(WithTopology(top), WithHDPS(HADPS()))
	defer net.Close()
	specs := make([]ChannelSpec, 1000)
	for i := range specs {
		specs[i] = ChannelSpec{Src: NodeID(1 + i%100), Dst: NodeID(1001 + (i*7)%100), C: 1, P: 100000, D: 50000}
	}
	chs, err := net.EstablishAll(specs)
	if err != nil {
		t.Fatal(err)
	}
	before := net.AdmissionStats().Repartitions
	rep, err := net.SetLinkUp(0, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Affected != len(specs) || rep.Count(Rerouted) != len(specs) {
		t.Fatalf("report: %d affected, %d rerouted, want %d of each", rep.Affected, rep.Count(Rerouted), len(specs))
	}
	if got := net.AdmissionStats().Repartitions - before; got > 2 {
		t.Fatalf("failover ran %d repartition passes, want at most 2", got)
	}
	for _, ch := range chs {
		if net.Lookup(ch.ID()) != ch || len(ch.Budgets()) != 5 {
			t.Fatalf("channel %d: handle kept %v, %d hops, want the 5-hop detour", ch.ID(), net.Lookup(ch.ID()) == ch, len(ch.Budgets()))
		}
	}
}

// TestFailoverPreemptEvictsOnlyForAdmission is the ring reproducer for
// eviction for nothing: the displaced high-priority channel needs more of
// the detour edge sw0→sw3 than evicting the one lower-priority channel
// there frees, and the rest belongs to an equal-priority channel. The
// displaced channel is lost; its would-be victim stays established, its
// ID, spec and budgets untouched, and nothing is reported preempted.
func TestFailoverPreemptEvictsOnlyForAdmission(t *testing.T) {
	net := New(WithTopology(ringTopology(t)), WithHDPS(HADPS()), WithFailurePolicy(FailPreempt))
	defer net.Close()
	low, err := net.Establish(ChannelSpec{Src: 2, Dst: 7, C: 1, P: 10, D: 100, Priority: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Establish(ChannelSpec{Src: 2, Dst: 8, C: 6, P: 10, D: 100, Priority: 2}); err != nil {
		t.Fatal(err)
	}
	hi, err := net.Establish(ChannelSpec{Src: 1, Dst: 3, C: 5, P: 10, D: 100, Priority: 2})
	if err != nil {
		t.Fatal(err)
	}
	spec, budgets := low.Spec(), low.Budgets()

	rep, err := net.SetLinkUp(0, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Affected != 1 || rep.Count(Lost) != 1 || rep.Count(Preempted) != 0 {
		t.Fatalf("report = %+v, want the displaced channel lost and nothing preempted", rep)
	}
	if err := hi.Release(); !errors.Is(err, ErrChannelClosed) {
		t.Fatalf("lost channel release: %v, want ErrChannelClosed", err)
	}
	if net.Lookup(low.ID()) != low || low.Spec() != spec || !slices.Equal(low.Budgets(), budgets) {
		t.Fatalf("would-be victim: handle kept %v, spec %v budgets %v, was %v %v",
			net.Lookup(low.ID()) == low, low.Spec(), low.Budgets(), spec, budgets)
	}
	if st := net.AdmissionStats(); st.Preempted != 0 || st.Lost != 1 {
		t.Fatalf("stats = %+v, want Preempted=0 Lost=1", st)
	}
}

func sum(v []int64) (s int64) {
	for _, x := range v {
		s += x
	}
	return s
}
