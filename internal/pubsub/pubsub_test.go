package pubsub

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/rtether"
)

// TestSubscribeRollbackOnRejectedJoin drives the registry on an
// in-process star and pins the atomic membership change: a join whose
// tree the network cannot afford is refused, the previous sink set's
// channel keeps its ID and keeps serving, and the hooks tell the story:
// no release, no re-admission.
func TestSubscribeRollbackOnRejectedJoin(t *testing.T) {
	net := rtether.New()
	for id := rtether.NodeID(1); id <= 4; id++ {
		net.MustAddNode(id)
	}
	// Node 4's downlink is nearly full: the topic's C/P = 0.5 cannot join it.
	if _, err := net.EstablishAll([]rtether.ChannelSpec{{Src: 3, Dst: 4, C: 6, P: 10, D: 40}}); err != nil {
		t.Fatal(err)
	}

	var events []string
	reg := NewRegistry(net, Hooks{
		Admitted: func(topic string, ch *rtether.Channel) {
			events = append(events, fmt.Sprintf("admitted %s %v", topic, ch.Sinks()))
		},
		Released: func(topic string, id rtether.ChannelID) {
			events = append(events, fmt.Sprintf("released %s", topic))
		},
	})
	if err := reg.Create("temp", 1, 5, 10, 40); err != nil {
		t.Fatal(err)
	}
	sub, err := reg.Subscribe("temp", 2)
	if err != nil {
		t.Fatalf("first join refused: %v", err)
	}
	first := reg.Snapshot()[0].ChannelID

	_, err = reg.Subscribe("temp", 4)
	var ae *rtether.AdmissionError
	if !errors.As(err, &ae) || ae.Sink != 4 || ae.Dir != rtether.DirDown {
		t.Fatalf("join of a saturated node: err = %v, want an AdmissionError on node 4's downlink", err)
	}

	info := reg.Snapshot()[0]
	if !reflect.DeepEqual(info.Subscribers, []rtether.NodeID{2}) {
		t.Errorf("subscribers after refused join = %v, want [2]", info.Subscribers)
	}
	kept := net.Lookup(info.ChannelID)
	if kept == nil || info.ChannelID != first {
		t.Fatalf("topic channel after refused join = %d (first tree was %d), want the first tree kept", info.ChannelID, first)
	}
	if got := kept.Sinks(); !reflect.DeepEqual(got, []rtether.NodeID{2}) {
		t.Errorf("kept tree sinks = %v, want [2]", got)
	}
	want := []string{"admitted temp [2]"}
	if !reflect.DeepEqual(events, want) {
		t.Errorf("hook order = %q, want %q", events, want)
	}

	// The surviving subscriber still receives publishes.
	if _, delivered, err := reg.Publish("temp", "21.5C"); err != nil || delivered != 1 {
		t.Fatalf("publish after refused join: delivered %d, err %v", delivered, err)
	}
	if ev := <-sub.Events; ev.Payload != "21.5C" {
		t.Errorf("payload = %q", ev.Payload)
	}
}
