package server_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/rtether"
	"repro/rtether/client"
	"repro/rtether/wire"
)

// nextEvent reads one feed event with a timeout.
func nextEvent(t *testing.T, f *client.TopicFeed) wire.TopicEvent {
	t.Helper()
	type res struct {
		ev  wire.TopicEvent
		err error
	}
	got := make(chan res, 1)
	go func() {
		ev, err := f.Next()
		got <- res{ev, err}
	}()
	select {
	case r := <-got:
		if r.err != nil {
			t.Fatalf("feed ended early: %v", r.err)
		}
		return r.ev
	case <-time.After(5 * time.Second):
		t.Fatalf("timed out waiting for a feed event")
		return wire.TopicEvent{}
	}
}

// topicByName polls GET /v1/topics for the named topic.
func topicByName(t *testing.T, cl *client.Client, name string) wire.TopicInfo {
	t.Helper()
	infos, err := cl.Topics(context.Background())
	if err != nil {
		t.Fatalf("topics: %v", err)
	}
	for _, info := range infos {
		if info.Name == name {
			return info
		}
	}
	t.Fatalf("topic %q not listed in %+v", name, infos)
	return wire.TopicInfo{}
}

// TestPubSubEndToEnd is the PR acceptance criterion for the control
// plane: two subscribers join a topic over HTTP, a publish reaches both
// through their watch-style feeds, and a third subscriber grows the
// topic's multicast tree in one decision (the same channel ID now
// carrying the grown sink set).
func TestPubSubEndToEnd(t *testing.T) {
	cl, _ := newTestServer(t, starNet(5))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	if err := cl.CreateTopic(ctx, "telemetry", 1, 1, 20, 10); err != nil {
		t.Fatalf("create topic: %v", err)
	}
	if err := cl.CreateTopic(ctx, "telemetry", 1, 1, 20, 10); !errors.Is(err, client.ErrDuplicateTopic) {
		t.Fatalf("duplicate create = %v, want ErrDuplicateTopic", err)
	}
	if info := topicByName(t, cl, "telemetry"); len(info.Subscribers) != 0 || info.ChannelID != 0 {
		t.Fatalf("fresh topic holds a reservation: %+v", info)
	}

	feedA, err := cl.SubscribeTopic(ctx, "telemetry", 2)
	if err != nil {
		t.Fatalf("subscribe node 2: %v", err)
	}
	defer feedA.Close()
	feedB, err := cl.SubscribeTopic(ctx, "telemetry", 3)
	if err != nil {
		t.Fatalf("subscribe node 3: %v", err)
	}
	defer feedB.Close()

	info := topicByName(t, cl, "telemetry")
	if len(info.Subscribers) != 2 || info.Subscribers[0] != 2 || info.Subscribers[1] != 3 {
		t.Fatalf("subscribers = %v, want [2 3]", info.Subscribers)
	}
	if info.ChannelID == 0 {
		t.Fatalf("two subscribers but no live multicast channel: %+v", info)
	}
	firstTree := info.ChannelID

	rep, err := cl.Publish(ctx, "telemetry", "hello")
	if err != nil {
		t.Fatalf("publish: %v", err)
	}
	if rep.Seq != 1 || rep.Delivered != 2 {
		t.Fatalf("publish reply = %+v, want seq 1 delivered 2", rep)
	}
	for name, feed := range map[string]*client.TopicFeed{"A": feedA, "B": feedB} {
		ev := nextEvent(t, feed)
		if ev.Seq != 1 || ev.Topic != "telemetry" || ev.Payload != "hello" {
			t.Fatalf("feed %s event = %+v", name, ev)
		}
	}

	// Third subscriber: the sink set grows, so the daemon reconfigures
	// the tree to {2, 3, 4}, keeping its channel ID.
	feedC, err := cl.SubscribeTopic(ctx, "telemetry", 4)
	if err != nil {
		t.Fatalf("subscribe node 4: %v", err)
	}
	defer feedC.Close()
	info = topicByName(t, cl, "telemetry")
	if len(info.Subscribers) != 3 {
		t.Fatalf("subscribers after third join = %v", info.Subscribers)
	}
	if info.ChannelID != firstTree {
		t.Fatalf("third join replaced the tree: channel %d (was %d)", info.ChannelID, firstTree)
	}

	rep, err = cl.Publish(ctx, "telemetry", "fanout")
	if err != nil {
		t.Fatalf("second publish: %v", err)
	}
	if rep.Seq != 2 || rep.Delivered != 3 {
		t.Fatalf("second publish reply = %+v, want seq 2 delivered 3", rep)
	}
	for name, feed := range map[string]*client.TopicFeed{"A": feedA, "B": feedB, "C": feedC} {
		if ev := nextEvent(t, feed); ev.Seq != 2 || ev.Payload != "fanout" {
			t.Fatalf("feed %s second event = %+v", name, ev)
		}
	}

	// The daemon's multicast channel really carries the subscriber set.
	infos, err := cl.Channels(ctx)
	if err != nil || len(infos) != 1 {
		t.Fatalf("channels = %+v, %v", infos, err)
	}

	if _, err := cl.Publish(ctx, "nope", "x"); !errors.Is(err, client.ErrUnknownTopic) {
		t.Fatalf("publish to unknown topic = %v, want ErrUnknownTopic", err)
	}
}

// TestPubSubRejectedJoin pins the membership→re-admission contract: a
// join whose grown tree is infeasible is rejected with the failing
// branch named, and the previous subscribers keep their channel.
func TestPubSubRejectedJoin(t *testing.T) {
	net := starNet(5)
	cl, _ := newTestServer(t, net)
	ctx := context.Background()

	// Saturate node 5's downlink: two {C=3, D_down=6} tasks fill t=6.
	for _, src := range []rtether.NodeID{2, 3} {
		if _, err := cl.Establish(ctx, rtether.ChannelSpec{Src: src, Dst: 5, C: 3, P: 10, D: 12}); err != nil {
			t.Fatalf("preload: %v", err)
		}
	}
	if err := cl.CreateTopic(ctx, "alarms", 1, 3, 10, 12); err != nil {
		t.Fatalf("create topic: %v", err)
	}
	feed, err := cl.SubscribeTopic(ctx, "alarms", 2)
	if err != nil {
		t.Fatalf("subscribe node 2: %v", err)
	}
	defer feed.Close()
	before := topicByName(t, cl, "alarms")

	_, err = cl.SubscribeTopic(ctx, "alarms", 5)
	var ae *rtether.AdmissionError
	if !errors.As(err, &ae) {
		t.Fatalf("join over saturated downlink = %v, want *AdmissionError", err)
	}
	if ae.Sink != 5 || ae.Branch < 0 {
		t.Fatalf("rejection does not name the failing branch: %+v", ae)
	}

	// The surviving subscriber's service is untouched: same-size sink
	// set, live channel, publishes still delivered.
	after := topicByName(t, cl, "alarms")
	if len(after.Subscribers) != len(before.Subscribers) || after.ChannelID == 0 {
		t.Fatalf("rejected join disturbed the topic: before %+v after %+v", before, after)
	}
	rep, err := cl.Publish(ctx, "alarms", "still-on")
	if err != nil || rep.Delivered != 1 {
		t.Fatalf("publish after rejected join = %+v, %v", rep, err)
	}
	if ev := nextEvent(t, feed); ev.Payload != "still-on" {
		t.Fatalf("survivor feed event = %+v", ev)
	}
}

// TestEstablishMulticastHTTP drives POST /v1/multicast through the
// typed client: admission with budgets, and a branch-annotated
// rejection round-tripped field for field.
func TestEstablishMulticastHTTP(t *testing.T) {
	cl, _ := newTestServer(t, starNet(5))
	ctx := context.Background()

	ch, err := cl.EstablishMulticast(ctx, rtether.MulticastSpec{Src: 1, Sinks: []rtether.NodeID{2, 3, 4}, C: 1, P: 20, D: 10})
	if err != nil {
		t.Fatalf("establish multicast: %v", err)
	}
	if ch.ID == 0 || len(ch.Budgets) != 2 || ch.Budgets[0]+ch.Budgets[1] != 10 {
		t.Fatalf("bad multicast reply: %+v", ch)
	}

	// Saturate node 5's downlink, then ask for a tree touching it.
	for _, src := range []rtether.NodeID{2, 3} {
		if _, err := cl.Establish(ctx, rtether.ChannelSpec{Src: src, Dst: 5, C: 3, P: 10, D: 12}); err != nil {
			t.Fatalf("preload: %v", err)
		}
	}
	_, err = cl.EstablishMulticast(ctx, rtether.MulticastSpec{Src: 1, Sinks: []rtether.NodeID{4, 5}, C: 3, P: 10, D: 12})
	var ae *rtether.AdmissionError
	if !errors.As(err, &ae) {
		t.Fatalf("overload = %v, want *AdmissionError", err)
	}
	if ae.Branch != 1 || ae.Sink != 5 || ae.Dir != rtether.DirDown {
		t.Fatalf("branch attribution lost on the wire: %+v", ae)
	}
	if !errors.Is(err, rtether.ErrInfeasible) {
		t.Fatalf("remote rejection does not unwrap to ErrInfeasible")
	}
}

// TestHealthzJSON pins the upgraded /v1/healthz body.
func TestHealthzJSON(t *testing.T) {
	cl, _ := newTestServer(t, starNet(3))
	ctx := context.Background()

	if err := cl.CreateTopic(ctx, "t0", 1, 1, 20, 10); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Establish(ctx, rtether.ChannelSpec{Src: 1, Dst: 2, C: 1, P: 100, D: 40}); err != nil {
		t.Fatal(err)
	}

	hz, err := cl.HealthzInfo(ctx)
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	if hz.Status != "ok" {
		t.Errorf("status = %q", hz.Status)
	}
	if hz.GoVersion == "" {
		t.Errorf("missing go version")
	}
	if hz.UptimeSecs < 0 {
		t.Errorf("negative uptime %f", hz.UptimeSecs)
	}
	if hz.Channels != 1 {
		t.Errorf("channels = %d, want 1", hz.Channels)
	}
	if hz.Topics != 1 {
		t.Errorf("topics = %d, want 1", hz.Topics)
	}
	// The establish above reached the watch feed, so the high-water mark
	// has moved even with no watcher connected.
	if hz.WatchSeq == 0 {
		t.Errorf("watch seq high-water mark = 0 after an admission")
	}
}
