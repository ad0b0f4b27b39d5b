package core

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"
)

func TestChannelSpecValidate(t *testing.T) {
	cases := []struct {
		name string
		spec ChannelSpec
		want error
	}{
		{"valid paper spec", ChannelSpec{Src: 1, Dst: 2, C: 3, P: 100, D: 40}, nil},
		{"valid minimal deadline", ChannelSpec{Src: 1, Dst: 2, C: 3, P: 100, D: 6}, nil},
		{"self loop", ChannelSpec{Src: 5, Dst: 5, C: 1, P: 10, D: 10}, ErrSelfLoop},
		{"zero C", ChannelSpec{Src: 1, Dst: 2, C: 0, P: 10, D: 10}, ErrNonPositiveC},
		{"negative C", ChannelSpec{Src: 1, Dst: 2, C: -2, P: 10, D: 10}, ErrNonPositiveC},
		{"zero P", ChannelSpec{Src: 1, Dst: 2, C: 1, P: 0, D: 10}, ErrNonPositiveP},
		{"C over P", ChannelSpec{Src: 1, Dst: 2, C: 11, P: 10, D: 30}, ErrCExceedsP},
		{"deadline below 2C", ChannelSpec{Src: 1, Dst: 2, C: 3, P: 100, D: 5}, ErrDeadlineTooShort},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.spec.Validate()
			if tc.want == nil {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("Validate() = %v, want errors.Is(_, %v)", err, tc.want)
			}
		})
	}
}

func TestPartitionValidFor(t *testing.T) {
	spec := ChannelSpec{Src: 1, Dst: 2, C: 3, P: 100, D: 40}
	cases := []struct {
		name string
		p    Partition
		want bool
	}{
		{"symmetric", Partition{20, 20}, true},
		{"asymmetric", Partition{33, 7}, true},
		{"extreme valid", Partition{37, 3}, true},
		{"sum mismatch", Partition{20, 19}, false},
		{"up below C", Partition{2, 38}, false},
		{"down below C", Partition{38, 2}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.p.ValidFor(spec); got != tc.want {
				t.Errorf("ValidFor = %v, want %v", got, tc.want)
			}
		})
	}
}

func TestSpecAndChannelString(t *testing.T) {
	spec := ChannelSpec{Src: 1, Dst: 2, C: 3, P: 100, D: 40}
	ch := &Channel{ID: 7, Spec: spec, Part: Partition{33, 7}}
	s := ch.String()
	for _, want := range []string{"RT#7", "1→2", "up=33", "down=7"} {
		if !strings.Contains(s, want) {
			t.Errorf("Channel.String() = %q, missing %q", s, want)
		}
	}
}

func TestLinkHelpers(t *testing.T) {
	if Uplink(3) != (Link{Node: 3, Dir: Up}) {
		t.Error("Uplink mismatch")
	}
	if Downlink(3) != (Link{Node: 3, Dir: Down}) {
		t.Error("Downlink mismatch")
	}
	spec := ChannelSpec{Src: 1, Dst: 2, C: 3, P: 100, D: 40}
	links := LinksOf(spec)
	if links[0] != Uplink(1) || links[1] != Downlink(2) {
		t.Errorf("LinksOf = %v", links)
	}
	if got := Uplink(9).String(); !strings.Contains(got, "up") {
		t.Errorf("Link.String() = %q", got)
	}
	if got := Direction(9).String(); !strings.Contains(got, "dir(9)") {
		t.Errorf("unknown Direction.String() = %q", got)
	}
}

func TestClampPartitionProperties(t *testing.T) {
	// For any valid spec and any proposed up share, the clamped partition
	// must satisfy conditions (8) and (9).
	f := func(c, dExtra uint8, up int16) bool {
		spec := ChannelSpec{
			Src: 1, Dst: 2,
			C: int64(c%20) + 1,
		}
		spec.D = 2*spec.C + int64(dExtra)
		spec.P = spec.D + 100
		p := clampPartition(spec, int64(up))
		return p.ValidFor(spec)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
