package fabricsim

import (
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/topo"
)

// liveIDs lists the channels Run arms, in arming order.
func liveIDs(s *Sim) []core.ChannelID {
	var ids []core.ChannelID
	for _, ch := range s.live {
		if !ch.gone {
			ids = append(ids, ch.id)
		}
	}
	return ids
}

// TestRetentionFollowsLiveChannels cycles install, Start, Run and Remove
// next to standing traffic. Counted after every cycle: the simulation
// holds the standing channels only, keeps one Metrics per removed
// channel that released traffic, and Run's arm walk visits the live
// channels only, however long the history.
func TestRetentionFollowsLiveChannels(t *testing.T) {
	spec := core.ChannelSpec{C: 1, P: 50, D: 40}
	ctrl := loadLine(t, 2, topo.HSDPS{}, 4, spec)
	s, err := New(ctrl.State(), nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	standing := ctrl.State().Len()
	const cycles = 300
	for i := 1; i <= cycles; i++ {
		req := spec
		req.Src, req.Dst = core.NodeID(i%6), core.NodeID(100+i%12)
		hch, err := ctrl.Request(req)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Install(hch); err != nil {
			t.Fatal(err)
		}
		if err := s.Start(hch.ID, 0); err != nil {
			t.Fatal(err)
		}
		s.Run(s.Now() + spec.P)
		if len(s.live) != standing+1 {
			t.Fatalf("cycle %d: Run walked %d entries for %d live channels", i, len(s.live), standing+1)
		}
		if err := ctrl.Release(hch.ID); err != nil {
			t.Fatal(err)
		}
		if err := s.Remove(hch.ID); err != nil {
			t.Fatal(err)
		}
		if len(s.byID) != standing || len(s.done) != i {
			t.Fatalf("cycle %d: %d channels held, %d metrics kept; want %d and %d", i, len(s.byID), len(s.done), standing, i)
		}
	}
	if d, m, _ := s.Totals(); d == 0 || m != 0 {
		t.Fatalf("delivered %d, missed %d: the channels did not run clean", d, m)
	}
}

// TestRemoveKeepsWhatTrafficLeft pins what Remove leaves behind: nothing
// for a channel that never released traffic; for one that did, its
// Metrics, into which frames still in flight keep draining.
func TestRemoveKeepsWhatTrafficLeft(t *testing.T) {
	ctrl := loadLine(t, 3, topo.HSDPS{}, 2, core.ChannelSpec{C: 2, P: 100, D: 60})
	chs := ctrl.State().Channels()
	s := NewSim(Config{})
	for _, hch := range chs {
		if err := s.Install(hch); err != nil {
			t.Fatal(err)
		}
	}
	idle, busy := chs[0].ID, chs[1].ID
	if err := s.Start(busy, 0); err != nil {
		t.Fatal(err)
	}
	s.Run(0) // released, not delivered
	for _, id := range []core.ChannelID{idle, busy} {
		if err := s.Remove(id); err != nil {
			t.Fatal(err)
		}
	}
	s.Run(200)
	if s.Len() != 0 || s.Channel(idle) != nil || !slices.Equal(s.ChannelIDs(), []core.ChannelID{busy}) {
		t.Fatalf("after Remove: %d held, idle metrics %v, IDs %v", s.Len(), s.Channel(idle), s.ChannelIDs())
	}
	if m := s.Channel(busy); m.Delivered != 2 || m.Misses != 0 {
		t.Fatalf("in-flight frames drained %d deliveries, %d misses; want 2, 0", m.Delivered, m.Misses)
	}
	if d, _, _ := s.Totals(); d != 2 {
		t.Fatalf("Totals delivered %d, want 2", d)
	}
}

// TestRunArmsInAdmissionOrder pins the arm order: channels installed
// out of admission order are armed in it, and a re-admission under its
// ID (a newer Seq) moves its channel to the end, as installing every
// channel at admission would.
func TestRunArmsInAdmissionOrder(t *testing.T) {
	ctrl := loadLine(t, 2, topo.HSDPS{}, 3, core.ChannelSpec{C: 1, P: 50, D: 40})
	chs := ctrl.State().Channels()
	s := NewSim(Config{})
	for _, i := range []int{2, 0, 1} {
		if err := s.Install(chs[i]); err != nil {
			t.Fatal(err)
		}
	}
	want := []core.ChannelID{chs[0].ID, chs[1].ID, chs[2].ID}
	if got := liveIDs(s); !slices.Equal(got, want) {
		t.Fatalf("arm order %v, want admission order %v", got, want)
	}
	first := chs[0]
	moved, err := ctrl.Apply([]core.ChannelID{first.ID}, []topo.Req{{Spec: first.Spec, ID: first.ID, KeepID: true}})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Install(moved[0]); err != nil {
		t.Fatal(err)
	}
	want = []core.ChannelID{chs[1].ID, chs[2].ID, first.ID}
	if got := liveIDs(s); !slices.Equal(got, want) {
		t.Fatalf("arm order after re-admission %v, want %v", got, want)
	}
}
