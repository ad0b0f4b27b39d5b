package core

import (
	"math/rand"
	"testing"
)

// buildState constructs a state holding the given specs with fresh IDs and
// placeholder partitions.
func buildState(specs []ChannelSpec) *State {
	st := NewState()
	for _, s := range specs {
		ch := &Channel{ID: st.allocID(), Spec: s, Part: Partition{Up: s.C, Down: s.D - s.C}}
		st.add(ch)
	}
	return st
}

func TestSDPSSplitsInHalf(t *testing.T) {
	st := buildState([]ChannelSpec{
		{Src: 1, Dst: 2, C: 3, P: 100, D: 40},
		{Src: 1, Dst: 3, C: 3, P: 100, D: 41}, // odd deadline
	})
	parts := SDPS{}.Partition(st)
	chs := st.Channels()
	if p := parts[chs[0].ID]; p != (Partition{20, 20}) {
		t.Errorf("even deadline: %+v, want {20 20}", p)
	}
	if p := parts[chs[1].ID]; p != (Partition{20, 21}) {
		t.Errorf("odd deadline: %+v, want {20 21} (floor to uplink)", p)
	}
}

func TestSDPSIsStateInvariant(t *testing.T) {
	// The paper: SDPS "doesn't take into consideration what the system
	// looks like" — the partition of a channel must not depend on what
	// else is in the state.
	spec := ChannelSpec{Src: 1, Dst: 2, C: 3, P: 100, D: 40}
	small := buildState([]ChannelSpec{spec})
	big := buildState([]ChannelSpec{spec,
		{Src: 1, Dst: 3, C: 3, P: 100, D: 40},
		{Src: 1, Dst: 4, C: 3, P: 100, D: 40},
		{Src: 5, Dst: 2, C: 3, P: 100, D: 40},
	})
	pSmall := SDPS{}.Partition(small)[small.Channels()[0].ID]
	pBig := SDPS{}.Partition(big)[big.Channels()[0].ID]
	if pSmall != pBig {
		t.Errorf("SDPS depends on state: %+v vs %+v", pSmall, pBig)
	}
}

func TestSDPSClampsTightDeadline(t *testing.T) {
	// D=7, C=3: naive halves {3,4}; clamp must keep both >= C.
	st := buildState([]ChannelSpec{{Src: 1, Dst: 2, C: 3, P: 100, D: 7}})
	p := SDPS{}.Partition(st)[st.Channels()[0].ID]
	if !p.ValidFor(st.Channels()[0].Spec) {
		t.Errorf("clamped SDPS partition invalid: %+v", p)
	}
}

func TestADPSFavorsLoadedUplink(t *testing.T) {
	// One master (node 1) sending to five slaves: the master uplink has
	// LL=5, each slave downlink LL=1, so U_part = 5/6 and d_iu = 33.
	specs := make([]ChannelSpec, 5)
	for i := range specs {
		specs[i] = ChannelSpec{Src: 1, Dst: NodeID(10 + i), C: 3, P: 100, D: 40}
	}
	st := buildState(specs)
	parts := ADPS{}.Partition(st)
	for _, ch := range st.Channels() {
		p := parts[ch.ID]
		if p != (Partition{33, 7}) {
			t.Errorf("ADPS partition for %v = %+v, want {33 7}", ch, p)
		}
	}
}

func TestADPSFavorsLoadedDownlink(t *testing.T) {
	// Five masters all sending to one slave: the slave downlink has LL=5,
	// each master uplink LL=1, so D_part = 5/6 and d_id = 34.
	specs := make([]ChannelSpec, 5)
	for i := range specs {
		specs[i] = ChannelSpec{Src: NodeID(i), Dst: 99, C: 3, P: 100, D: 40}
	}
	st := buildState(specs)
	parts := ADPS{}.Partition(st)
	for _, ch := range st.Channels() {
		p := parts[ch.ID]
		if p != (Partition{6, 34}) {
			t.Errorf("ADPS partition for %v = %+v, want {6 34}", ch, p)
		}
	}
}

func TestADPSSymmetricLoadGivesHalf(t *testing.T) {
	// Equal loads on both sides: LL(src)=LL(dst)=1 → d_iu = D/2.
	st := buildState([]ChannelSpec{{Src: 1, Dst: 2, C: 3, P: 100, D: 40}})
	p := ADPS{}.Partition(st)[st.Channels()[0].ID]
	if p != (Partition{20, 20}) {
		t.Errorf("ADPS balanced partition = %+v, want {20 20}", p)
	}
}

func TestADPSRespectsConditionNine(t *testing.T) {
	// Heavily loaded uplink, tight deadline: raw share would push the
	// downlink below C; clamp must hold d_id >= C.
	specs := make([]ChannelSpec, 20)
	for i := range specs {
		specs[i] = ChannelSpec{Src: 1, Dst: NodeID(10 + i), C: 3, P: 1000, D: 7}
	}
	st := buildState(specs)
	parts := ADPS{}.Partition(st)
	for _, ch := range st.Channels() {
		p := parts[ch.ID]
		if !p.ValidFor(ch.Spec) {
			t.Fatalf("ADPS violated (8)/(9): %+v for %v", p, ch)
		}
		if p.Down != 3 {
			t.Errorf("expected clamp to d_id=C=3, got %+v", p)
		}
	}
}

func TestFixedDPS(t *testing.T) {
	st := buildState([]ChannelSpec{{Src: 1, Dst: 2, C: 3, P: 100, D: 40}})
	f := FixedDPS{UpNum: 5, UpDen: 6}
	p := f.Partition(st)[st.Channels()[0].ID]
	if p != (Partition{33, 7}) {
		t.Errorf("FixedDPS(5/6) = %+v, want {33 7}", p)
	}
	if f.Name() != "Fixed(5/6)" {
		t.Errorf("Name() = %q", f.Name())
	}
}

func TestDPSNames(t *testing.T) {
	if (SDPS{}).Name() != "SDPS" || (ADPS{}).Name() != "ADPS" {
		t.Error("scheme names changed; reports depend on them")
	}
}

// TestDPSInvariantsRandom fuzzes both schemes over random states: every
// returned partition must satisfy conditions (8) and (9) and cover every
// channel.
func TestDPSInvariantsRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	schemes := []DPS{SDPS{}, ADPS{}, FixedDPS{UpNum: 1, UpDen: 3}, FixedDPS{UpNum: 9, UpDen: 10}}
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(30) + 1
		specs := make([]ChannelSpec, 0, n)
		for i := 0; i < n; i++ {
			c := int64(rng.Intn(5) + 1)
			d := 2*c + int64(rng.Intn(50))
			src := NodeID(rng.Intn(8))
			dst := NodeID(rng.Intn(8) + 8)
			specs = append(specs, ChannelSpec{Src: src, Dst: dst, C: c, P: d + int64(rng.Intn(100)), D: d})
		}
		st := buildState(specs)
		for _, scheme := range schemes {
			parts := scheme.Partition(st)
			if len(parts) != st.Len() {
				t.Fatalf("%s returned %d partitions for %d channels", scheme.Name(), len(parts), st.Len())
			}
			for _, ch := range st.Channels() {
				p, ok := parts[ch.ID]
				if !ok {
					t.Fatalf("%s missing partition for %v", scheme.Name(), ch)
				}
				if !p.ValidFor(ch.Spec) {
					t.Fatalf("%s produced invalid partition %+v for %v", scheme.Name(), p, ch)
				}
			}
		}
	}
}

// TestADPSLocality: a channel's ADPS partition depends only on the loads
// of its own two links, so adding channels between unrelated nodes must
// not move it.
func TestADPSLocality(t *testing.T) {
	base := []ChannelSpec{{Src: 1, Dst: 2, C: 3, P: 100, D: 40}}
	small := buildState(base)
	pSmall := ADPS{}.Partition(small)[small.Channels()[0].ID]

	big := buildState(append(base,
		ChannelSpec{Src: 3, Dst: 4, C: 3, P: 100, D: 40},
		ChannelSpec{Src: 3, Dst: 5, C: 3, P: 100, D: 40},
		ChannelSpec{Src: 6, Dst: 4, C: 3, P: 100, D: 40},
	))
	pBig := ADPS{}.Partition(big)[big.Channels()[0].ID]
	if pSmall != pBig {
		t.Errorf("unrelated channels moved an ADPS partition: %+v vs %+v", pSmall, pBig)
	}

	// But a channel sharing the uplink must move it.
	shared := buildState(append(base, ChannelSpec{Src: 1, Dst: 5, C: 3, P: 100, D: 40}))
	pShared := ADPS{}.Partition(shared)[shared.Channels()[0].ID]
	if pShared == pSmall {
		t.Error("shared-uplink channel did not shift the ADPS partition")
	}
}

// Partition installation (changed-link tracking, missing/invalid
// partition panics) moved into the shared kernel; see the apply tests in
// internal/admit.
