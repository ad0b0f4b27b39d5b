package netsim

import (
	"testing"

	"repro/internal/core"
)

// TestRetentionFollowsLiveChannels cycles ApplyEach, StartTraffic, Run
// and a release next to standing traffic. Counted after every cycle:
// the source node holds the live sources only, its arm walk visits no
// stopped one, and the receivers keep one set of metrics per channel
// that delivered.
func TestRetentionFollowsLiveChannels(t *testing.T) {
	n := buildStar(Config{}, 1, 2, 3)
	src := n.Node(1)
	standing, err := n.Apply(nil, core.Unicast([]core.ChannelSpec{spec(1, 2, 1, 50, 40), spec(1, 3, 1, 50, 40)}))
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range standing {
		if err := src.StartTraffic(id, 0); err != nil {
			t.Fatal(err)
		}
	}
	const cycles = 300
	for i := 1; i <= cycles; i++ {
		ids, errs := n.ApplyEach(nil, core.Unicast([]core.ChannelSpec{spec(1, core.NodeID(2+i%2), 1, 50, 40)}))
		if errs[0] != nil {
			t.Fatal(errs[0])
		}
		if err := src.StartTraffic(ids[0], 0); err != nil {
			t.Fatal(err)
		}
		n.Run(n.Engine().Now() + 50)
		if len(src.sourceOrder) != len(standing)+1 {
			t.Fatalf("cycle %d: the arm walk visits %d sources for %d live", i, len(src.sourceOrder), len(standing)+1)
		}
		if _, err := n.Apply(ids, nil); err != nil {
			t.Fatal(err)
		}
		if len(src.sources) != len(standing) {
			t.Fatalf("cycle %d: %d sources held for %d live channels", i, len(src.sources), len(standing))
		}
		measured := len(n.Node(2).rxChannels) + len(n.Node(3).rxChannels)
		if want := len(standing) + i; measured != want {
			t.Fatalf("cycle %d: receivers keep %d channels' metrics, want %d", i, measured, want)
		}
	}
	if rep := n.Report(); rep.TotalDelivered() == 0 || rep.TotalMisses() != 0 {
		t.Fatalf("delivered %d, missed %d: the channels did not run clean", rep.TotalDelivered(), rep.TotalMisses())
	}
}
