package server_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/pubsub"
	"repro/internal/scenario"
	"repro/rtether"
	"repro/rtether/client"
)

// standing is everything a refused change must leave alone: the channel
// is still established, under the same ID, with the same spec, sinks and
// budgets.
type standing struct {
	id      rtether.ChannelID
	spec    rtether.ChannelSpec
	sinks   []rtether.NodeID
	budgets []int64
}

func standingOf(t *testing.T, net *rtether.Network, id rtether.ChannelID) standing {
	t.Helper()
	ch := net.Lookup(id)
	if ch == nil {
		t.Fatalf("channel %d lost its reservation", id)
	}
	return standing{id: ch.ID(), spec: ch.Spec(), sinks: ch.Sinks(), budgets: ch.Budgets()}
}

// refusalNet is one topology of the table: a star under ADPS with nodes
// 1..8, or the ADPS ring of ringNet (node n on switch (n-1)/2).
type refusalNet struct {
	name  string
	build func(*testing.T) *rtether.Network
	// layout is the same network as a scenario document's layout fields.
	layout string
	// The topic cases' roles: join is a node whose downlink a channel from
	// joinFiller saturates; stay and leave are the leave case's sinks,
	// loaders the sources of its load on leave's downlink, and racer the
	// source of the channel that races onto stay's downlink.
	join, joinFiller, stay, leave, racer rtether.NodeID
	loaders                              []rtether.NodeID
	leaveD, racerC, racerD               int64
}

var refusalNets = []refusalNet{
	{
		name: "star",
		build: func(*testing.T) *rtether.Network {
			net := rtether.New(rtether.WithADPS())
			for n := rtether.NodeID(1); n <= 8; n++ {
				net.MustAddNode(n)
			}
			return net
		},
		layout: `"dps": "adps", "nodes": [1,2,3,4,5,6,7,8]`,
		join:   4, joinFiller: 3,
		// ADPS splits the topic tree by its uplink load against its most
		// loaded sink downlink: three loaders on node 3's downlink give the
		// tree {4, 16}; without sink 3 it would be {6, 14}, and the racing
		// {14, 14} channel on node 2's downlink leaves no room for that.
		stay: 2, leave: 3, racer: 5, loaders: []rtether.NodeID{4, 6, 7},
		leaveD: 20, racerC: 14, racerD: 28,
	},
	{
		name:  "fabric",
		build: func(t *testing.T) *rtether.Network { return ringNet(t) },
		layout: `"dps": "adps", "topology": {"switches": [0,1,2,3], "trunks": [[0,1],[1,2],[2,3],[3,0]],
			"attachments": [{"node":1,"switch":0},{"node":2,"switch":0},{"node":3,"switch":1},{"node":4,"switch":1},
			                {"node":5,"switch":2},{"node":6,"switch":2},{"node":7,"switch":3},{"node":8,"switch":3}]}`,
		join: 7, joinFiller: 5,
		// H-ADPS budgets the tree {3, 5} along its deepest branch, whose
		// trunk sw1→sw2 carries nine loaders: the leaf sw1→n3 keeps 36 of
		// D = 40. The chain to sink 3 alone would give it 20, and the
		// racing {20, 20} channel on sw1→n3 leaves no room for that.
		stay: 3, leave: 5, racer: 4, loaders: []rtether.NodeID{3, 3, 3, 3, 3, 3, 3, 3, 3},
		leaveD: 40, racerC: 20, racerD: 40,
	},
}

// A reconfiguration the tables refuse: the standing channel {1→2, C=2}
// shares node 1's uplink with a 0.7 filler, so growing it to C = 4 needs
// 1.1 of the link.
var (
	standingSpec = rtether.ChannelSpec{Src: 1, Dst: 2, C: 2, P: 10, D: 40}
	fillerSpec   = rtether.ChannelSpec{Src: 1, Dst: 4, C: 7, P: 10, D: 40}
)

// loadStanding establishes the standing channel and its filler.
func loadStanding(t *testing.T, net *rtether.Network) *rtether.Channel {
	t.Helper()
	chs, err := net.EstablishAll([]rtether.ChannelSpec{standingSpec, fillerSpec})
	if err != nil {
		t.Fatal(err)
	}
	return chs[0]
}

// wantRefused fails t unless err is a feasibility rejection.
func wantRefused(t *testing.T, err error) {
	t.Helper()
	var ae *rtether.AdmissionError
	if !errors.As(err, &ae) {
		t.Fatalf("change = %v, want a feasibility rejection", err)
	}
}

// TestRefusedChangeKeepsReservation is the "a refused change never costs
// a standing channel its reservation" table: on a star and on a fabric,
// a refused reconfigure — through the handle, over JSON, over binary and
// as an optional scenario event — a topic join refused because a channel
// took the joining node's downlink, a topic leave refused because a
// channel raced onto the remaining sink's downlink, and a failover
// preemption that cannot save the displaced channel each leave the
// standing channel established under the same ID, spec and budgets.
func TestRefusedChangeKeepsReservation(t *testing.T) {
	type change func(t *testing.T, n refusalNet) (net *rtether.Network, id rtether.ChannelID, refuse func() *rtether.Network)
	cases := []struct {
		name       string
		fabricOnly bool
		run        change
	}{
		{name: "Channel.Reconfigure", run: func(t *testing.T, n refusalNet) (*rtether.Network, rtether.ChannelID, func() *rtether.Network) {
			net := n.build(t)
			t.Cleanup(func() { net.Close() })
			ch := loadStanding(t, net)
			return net, ch.ID(), func() *rtether.Network {
				grown := standingSpec
				grown.C = 4
				wantRefused(t, ch.Reconfigure(rtether.EstablishReq{Spec: grown}))
				return net
			}
		}},
		{name: "reconfigure over JSON", run: func(t *testing.T, n refusalNet) (*rtether.Network, rtether.ChannelID, func() *rtether.Network) {
			net := n.build(t)
			cl, _ := newTestServer(t, net)
			ch := loadStanding(t, net)
			return net, ch.ID(), func() *rtether.Network {
				_, err := cl.Reconfigure(context.Background(), ch.ID(), 4, 0, 0)
				wantRefused(t, err)
				return net
			}
		}},
		{name: "reconfigure over binary", run: func(t *testing.T, n refusalNet) (*rtether.Network, rtether.ChannelID, func() *rtether.Network) {
			net := n.build(t)
			cl, _ := newBinaryTestServer(t, net)
			ch := loadStanding(t, net)
			return net, ch.ID(), func() *rtether.Network {
				_, err := cl.Reconfigure(context.Background(), ch.ID(), 4, 0, 0)
				wantRefused(t, err)
				return net
			}
		}},
		{name: "optional scenario reconfigure", run: func(t *testing.T, n refusalNet) (*rtether.Network, rtether.ChannelID, func() *rtether.Network) {
			doc := func(events string) *scenario.Scenario {
				sc, err := scenario.Load(strings.NewReader(fmt.Sprintf(`{"name": "refused", "slots": 100, %s,
					"channels": [{"name": "s", "src": 1, "dst": 2, "c": 2, "p": 10, "d": 40},
					             {"name": "f", "src": 1, "dst": 4, "c": 7, "p": 10, "d": 40}],
					"events": [%s]}`, n.layout, events)))
				if err != nil {
					t.Fatal(err)
				}
				return sc
			}
			// The standing state is the same document replayed without the
			// event: replays are deterministic.
			base, err := doc("").Replay()
			if err != nil {
				t.Fatal(err)
			}
			return base.Network, base.Accepted[0], func() *rtether.Network {
				res, err := doc(`{"at": 10, "kind": "reconfigure", "channel": "s", "c": 4, "optional": true}`).Replay()
				if err != nil {
					t.Fatal(err)
				}
				if ev := res.Events[0]; ev.Accepted || ev.Skipped || !strings.Contains(ev.Detail, "rejected") {
					t.Fatalf("reconfigure event = %+v, want a tolerated rejection", ev)
				}
				return res.Network
			}
		}},
		{name: "topic join refused", run: func(t *testing.T, n refusalNet) (*rtether.Network, rtether.ChannelID, func() *rtether.Network) {
			net := n.build(t)
			t.Cleanup(func() { net.Close() })
			reg := pubsub.NewRegistry(net, pubsub.Hooks{})
			if err := reg.Create("alarms", 1, 5, 10, 40); err != nil {
				t.Fatal(err)
			}
			if _, err := reg.Subscribe("alarms", n.stay); err != nil {
				t.Fatal(err)
			}
			// A channel takes 0.9 of the joining node's downlink first.
			if _, err := net.Establish(rtether.ChannelSpec{Src: n.joinFiller, Dst: n.join, C: 9, P: 10, D: 40}); err != nil {
				t.Fatal(err)
			}
			return net, reg.Snapshot()[0].ChannelID, func() *rtether.Network {
				_, err := reg.Subscribe("alarms", n.join)
				wantRefused(t, err)
				return net
			}
		}},
		{name: "topic leave refused", run: func(t *testing.T, n refusalNet) (*rtether.Network, rtether.ChannelID, func() *rtether.Network) {
			net := n.build(t)
			t.Cleanup(func() { net.Close() })
			for _, src := range n.loaders {
				if _, err := net.Establish(rtether.ChannelSpec{Src: src, Dst: n.leave, C: 1, P: 100, D: 40}); err != nil {
					t.Fatalf("loader from node %d: %v", src, err)
				}
			}
			reg := pubsub.NewRegistry(net, pubsub.Hooks{})
			if err := reg.Create("telemetry", 1, 1, 100, n.leaveD); err != nil {
				t.Fatal(err)
			}
			if _, err := reg.Subscribe("telemetry", n.stay); err != nil {
				t.Fatal(err)
			}
			leaver, err := reg.Subscribe("telemetry", n.leave)
			if err != nil {
				t.Fatal(err)
			}
			// The racing channel lands on the remaining sink's downlink while
			// the tree still holds its two-sink budgets.
			if _, err := net.Establish(rtether.ChannelSpec{Src: n.racer, Dst: n.stay, C: n.racerC, P: 100, D: n.racerD}); err != nil {
				t.Fatalf("racing establish: %v", err)
			}
			return net, reg.Snapshot()[0].ChannelID, func() *rtether.Network {
				reg.Unsubscribe(leaver)
				if got := reg.Snapshot()[0].Subscribers; !reflect.DeepEqual(got, []rtether.NodeID{n.stay}) {
					t.Fatalf("subscribers after the leave = %v, want [%d]", got, n.stay)
				}
				return net
			}
		}},
		{name: "preemption that cannot save the channel", fabricOnly: true, run: func(t *testing.T, n refusalNet) (*rtether.Network, rtether.ChannelID, func() *rtether.Network) {
			net := ringNet(t, rtether.WithFailurePolicy(rtether.FailPreempt))
			t.Cleanup(func() { net.Close() })
			// sw0→sw3 carries a priority-1 channel (0.1) and a priority-2 one
			// (0.6); the priority-2 channel displaced off trunk 0-1 needs 0.5.
			low, err := net.Establish(rtether.ChannelSpec{Src: 2, Dst: 7, C: 1, P: 10, D: 100, Priority: 1})
			if err != nil {
				t.Fatal(err)
			}
			for _, spec := range []rtether.ChannelSpec{
				{Src: 2, Dst: 8, C: 6, P: 10, D: 100, Priority: 2},
				{Src: 1, Dst: 3, C: 5, P: 10, D: 100, Priority: 2},
			} {
				if _, err := net.Establish(spec); err != nil {
					t.Fatal(err)
				}
			}
			return net, low.ID(), func() *rtether.Network {
				rep, err := net.SetLinkUp(0, 1, false)
				if err != nil {
					t.Fatal(err)
				}
				if rep.Count(rtether.Lost) != 1 || rep.Count(rtether.Preempted) != 0 {
					t.Fatalf("failover report = %+v, want the displaced channel lost and nobody preempted", rep)
				}
				return net
			}
		}},
	}
	for _, n := range refusalNets {
		for _, c := range cases {
			if c.fabricOnly && n.name != "fabric" {
				continue
			}
			t.Run(n.name+"/"+c.name, func(t *testing.T) {
				net, id, refuse := c.run(t, n)
				before := standingOf(t, net, id)
				if after := standingOf(t, refuse(), id); !reflect.DeepEqual(after, before) {
					t.Fatalf("refused change moved the standing channel:\n before %+v\n after  %+v", before, after)
				}
			})
		}
	}
}

// TestReconfigureRacesEstablish flips a standing channel between two
// sizes over JSON while other clients establish and release channels on
// the same uplink: whatever the interleaving, a reconfigure is accepted
// or refused as one decision, and the channel never loses its
// reservation or its ID. The race job runs it under the race detector.
func TestReconfigureRacesEstablish(t *testing.T) {
	net := starNet(6)
	cl, _ := newTestServer(t, net)
	ctx := context.Background()
	ch, err := cl.Establish(ctx, rtether.ChannelSpec{Src: 1, Dst: 2, C: 2, P: 10, D: 40})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(dst rtether.NodeID) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				other, err := cl.Establish(ctx, rtether.ChannelSpec{Src: 1, Dst: dst, C: 4, P: 10, D: 40})
				if err != nil {
					continue // refused: the uplink is full right now
				}
				if err := cl.Release(ctx, other.ID); err != nil {
					t.Errorf("release %d: %v", other.ID, err)
					return
				}
			}
		}(rtether.NodeID(3 + g))
	}
	accepted, refused := 0, 0
	for i := 0; i < 200; i++ {
		c := int64(2 + 2*(i%2))
		_, err := cl.Reconfigure(ctx, ch.ID, c, 0, 0)
		switch {
		case err == nil:
			accepted++
		case errors.Is(err, rtether.ErrInfeasible):
			refused++
		default:
			t.Errorf("reconfigure %d: %v", i, err)
		}
		h := net.Lookup(ch.ID)
		if h == nil {
			close(stop)
			wg.Wait()
			t.Fatalf("reconfigure %d (err %v) cost channel %d its reservation", i, err, ch.ID)
		}
		if spec := h.Spec(); spec.C != 2 && spec.C != 4 || sum(h.Budgets()) != spec.D {
			t.Errorf("reconfigure %d left spec %v with budgets %v", i, spec, h.Budgets())
		}
	}
	close(stop)
	wg.Wait()
	if accepted == 0 {
		t.Fatal("no reconfigure was accepted")
	}
	t.Logf("%d reconfigures accepted, %d refused", accepted, refused)
	if _, err := cl.Reconfigure(ctx, ch.ID+1000, 0, 0, 50); !errors.Is(err, client.ErrUnknownChannel) {
		t.Errorf("reconfigure of an unknown channel = %v, want ErrUnknownChannel", err)
	}
}

func sum(v []int64) (s int64) {
	for _, x := range v {
		s += x
	}
	return s
}
