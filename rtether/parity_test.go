package rtether

import (
	"strings"
	"testing"
)

// TestAdmissionStatsParityStarFabric pins the single accounting path: the
// same establishment call counts the same requests and rejection causes
// whether a star or a fabric decides it, and an atomic list names its
// failing entry the same way on both. A refused list counts every member
// under its cause, so the causes always sum to the rejected requests.
func TestAdmissionStatsParityStarFabric(t *testing.T) {
	mkFabric := func(t *testing.T) *Network {
		top := lineTopology(t, 2) // nodes 0..5 on switch 0, 100..105 on switch 1
		return New(WithTopology(top))
	}
	mkStar := func(*testing.T) *Network {
		net := New()
		for _, id := range []NodeID{0, 1, 2, 100, 101, 102} {
			net.MustAddNode(id)
		}
		return net
	}
	ok := func(src, dst NodeID) ChannelSpec { return ChannelSpec{Src: src, Dst: dst, C: 6, P: 10, D: 40} }
	// counters is the backend-independent part of AdmissionStats.
	type counters struct {
		Requests, Accepted, Invalid, NoRoute, Utilization, Demand int
	}
	for _, tc := range []struct {
		name    string
		op      func(*testing.T, *Network) error // the error under test
		want    counters
		errPart string // substring of the error; "" means just non-nil
		bare    bool   // the error must not carry a batch prefix
	}{
		{
			name: "no-route batch",
			op: func(t *testing.T, n *Network) error {
				_, err := n.EstablishAll([]ChannelSpec{ok(0, 100), ok(1, 99), ok(2, 102)})
				return err
			},
			want:    counters{Requests: 3, NoRoute: 3},
			errPart: "batch spec 1 (chan{1→99 ",
		},
		{
			name: "invalid-spec batch",
			op: func(t *testing.T, n *Network) error {
				_, err := n.EstablishAll([]ChannelSpec{ok(0, 100), {Src: 1, Dst: 1, C: 6, P: 10, D: 40}})
				return err
			},
			want:    counters{Requests: 2, Invalid: 2},
			errPart: "batch spec 1 (chan{1→1 ",
		},
		{
			name: "unknown multicast sink",
			op: func(t *testing.T, n *Network) error {
				_, err := n.EstablishMulticast(MulticastSpec{Src: 0, Sinks: []NodeID{100, 99}, C: 6, P: 10, D: 40})
				return err
			},
			want: counters{Requests: 1, NoRoute: 1},
			bare: true,
		},
		{
			name: "mixed per-verdict group",
			op: func(t *testing.T, n *Network) error {
				chs, errs := n.EstablishEachMixed([]EstablishReq{
					{Spec: ok(0, 100)}, // accepted
					{Spec: ChannelSpec{Src: 0, C: 6, P: 10, D: 40}, Sinks: []NodeID{101, 102}}, // uplink(0) at U=1.2
					{Spec: ok(1, 99)}, // no route
					{Spec: ChannelSpec{Src: 2, Dst: 102, C: 6, P: 10, D: 11}}, // D < 2C
				})
				if chs[0] == nil || errs[0] != nil {
					t.Errorf("feasible entry rejected: %v", errs[0])
				}
				for i := 1; i < 4; i++ {
					if chs[i] != nil || errs[i] == nil {
						t.Errorf("entry %d accepted", i)
					}
				}
				return errs[1]
			},
			want:    counters{Requests: 4, Accepted: 1, Invalid: 1, NoRoute: 1, Utilization: 1},
			errPart: "branch 0 to node 101",
			bare:    true,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for layout, mk := range map[string]func(*testing.T) *Network{"star": mkStar, "fabric": mkFabric} {
				net := mk(t)
				err := tc.op(t, net)
				if err == nil || !strings.Contains(err.Error(), tc.errPart) {
					t.Errorf("%s: error %v, want one containing %q", layout, err, tc.errPart)
				}
				if tc.bare && err != nil && strings.Contains(err.Error(), "batch spec") {
					t.Errorf("%s: single request carries a batch prefix: %v", layout, err)
				}
				st := net.AdmissionStats()
				got := counters{st.Requests, st.Accepted, st.RejectedInvalid, st.RejectedNoRoute, st.RejectedUtilization, st.RejectedDemand}
				if got != tc.want {
					t.Errorf("%s: counters %+v, want %+v", layout, got, tc.want)
				}
				causes := st.RejectedInvalid + st.RejectedNoRoute + st.RejectedUtilization + st.RejectedDemand + st.RejectedInconclusive
				if causes != st.Requests-st.Accepted {
					t.Errorf("%s: rejection causes sum to %d, want %d rejected requests", layout, causes, st.Requests-st.Accepted)
				}
				if live := len(net.Channels()); live != tc.want.Accepted {
					t.Errorf("%s: %d channels committed, want %d", layout, live, tc.want.Accepted)
				}
			}
		})
	}
}
