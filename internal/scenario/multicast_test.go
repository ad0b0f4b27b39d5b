package scenario

import (
	"strings"
	"testing"

	"repro/rtether"
)

// TestMulticastPublishRun runs a scenario with a sinks-bearing channel
// and two publish bursts, and checks the fan-out arithmetic: every
// burst message reaches every sink within the deadline.
func TestMulticastPublishRun(t *testing.T) {
	doc := `{
		"name": "fanout",
		"slots": 200,
		"nodes": [1, 2, 3, 4],
		"channels": [
			{"name": "fan", "src": 1, "sinks": [2, 3], "c": 1, "p": 10, "d": 8},
			{"src": 4, "dst": 2, "c": 1, "p": 50, "d": 25}
		],
		"events": [
			{"at": 10, "kind": "publish", "channel": "fan", "count": 3},
			{"at": 50, "kind": "publish", "channel": "fan", "count": 2}
		]
	}`
	s, err := Load(strings.NewReader(doc))
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	defer res.Network.Close()
	if len(res.Accepted) != 2 {
		t.Fatalf("accepted %d channels, want 2", len(res.Accepted))
	}
	accepted, rejected, skipped := res.EventCounts()
	if accepted != 2 || rejected != 0 || skipped != 0 {
		t.Fatalf("event counts = %d/%d/%d, want 2 accepted", accepted, rejected, skipped)
	}
	fan := res.Network.Lookup(res.Accepted[0])
	if fan == nil || !fan.Multicast() {
		t.Fatalf("first accepted channel is not the multicast handle")
	}
	m := fan.Metrics()
	if m == nil {
		t.Fatalf("no deliveries on the multicast channel")
	}
	// Bursts of 3 and 2 messages, each fanned out to 2 sinks.
	if m.Delivered != 10 {
		t.Fatalf("Delivered = %d, want exactly (3+2 msgs)×2 sinks = 10", m.Delivered)
	}
	if m.Misses != 0 {
		t.Fatalf("%d deadline misses on an admitted tree", m.Misses)
	}
}

// TestMulticastPublishFabric runs the same publisher pattern across a
// routed two-switch fabric.
func TestMulticastPublishFabric(t *testing.T) {
	doc := `{
		"name": "fanout fabric",
		"dps": "adps",
		"slots": 300,
		"topology": {
			"switches": [0, 1],
			"trunks": [[0, 1]],
			"attachments": [
				{"node": 1, "switch": 0},
				{"node": 2, "switch": 0},
				{"node": 3, "switch": 1}
			]
		},
		"channels": [
			{"name": "fan", "src": 1, "sinks": [2, 3], "c": 1, "p": 20, "d": 16}
		],
		"events": [
			{"at": 20, "kind": "publish", "channel": "fan", "count": 4}
		]
	}`
	s, err := Load(strings.NewReader(doc))
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	defer res.Network.Close()
	fan := res.Network.Lookup(res.Accepted[0])
	if m := fan.Metrics(); m == nil || m.Delivered != 8 || m.Misses != 0 {
		t.Fatalf("fabric fan-out metrics = %+v, want 4×2 deliveries, 0 misses", m)
	}
}

// TestMulticastScenarioValidation pins the load-time rejections of the
// multicast schema extensions.
func TestMulticastScenarioValidation(t *testing.T) {
	cases := []struct {
		name string
		doc  string
		want string
	}{
		{
			"dst and sinks together",
			`{"slots": 10, "nodes": [1,2,3], "channels": [{"src":1,"dst":2,"sinks":[3],"c":1,"p":10,"d":8}]}`,
			"mutually exclusive",
		},
		{
			"undeclared sink",
			`{"slots": 10, "nodes": [1,2], "channels": [{"src":1,"sinks":[9],"c":1,"p":10,"d":8}]}`,
			"undeclared sink",
		},
		{
			"duplicate sink",
			`{"slots": 10, "nodes": [1,2], "channels": [{"src":1,"sinks":[2,2],"c":1,"p":10,"d":8}]}`,
			"twice",
		},
		{
			"publish on unicast",
			`{"slots": 10, "nodes": [1,2], "channels": [{"name":"u","src":1,"dst":2,"c":1,"p":10,"d":8}],
			  "events": [{"at":1,"kind":"publish","channel":"u"}]}`,
			"unicast",
		},
		{
			"overlapping bursts",
			`{"slots": 100, "nodes": [1,2], "channels": [{"name":"m","src":1,"sinks":[2],"c":1,"p":10,"d":8}],
			  "events": [{"at":1,"kind":"publish","channel":"m","count":3},
			             {"at":5,"kind":"publish","channel":"m"}]}`,
			"burst",
		},
		{
			"multicast in establishAll",
			`{"slots": 100, "nodes": [1,2,3], "channels": [{"name":"m","src":1,"sinks":[2],"c":1,"p":10,"d":8},
			                                               {"name":"u","src":1,"dst":3,"c":1,"p":10,"d":8}],
			  "events": [{"at":1,"kind":"establishAll","channels":["m","u"]}]}`,
			"atomic",
		},
		{
			"reconfigure multicast",
			`{"slots": 100, "nodes": [1,2], "channels": [{"name":"m","src":1,"sinks":[2],"c":1,"p":10,"d":8}],
			  "events": [{"at":1,"kind":"reconfigure","channel":"m","d":9}]}`,
			"reconfigured",
		},
		{
			"count on establish",
			`{"slots": 100, "nodes": [1,2], "channels": [{"name":"u","src":1,"dst":2,"c":1,"p":10,"d":8}],
			  "events": [{"at":1,"kind":"release","channel":"u","count":2}]}`,
			"count",
		},
		{
			"publish after release",
			`{"slots": 100, "nodes": [1,2], "channels": [{"name":"m","src":1,"sinks":[2],"c":1,"p":10,"d":8}],
			  "events": [{"at":0,"kind":"release","channel":"m"},
			             {"at":1,"kind":"publish","channel":"m"}]}`,
			"not established",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Load(strings.NewReader(tc.doc))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Load = %v, want error containing %q", err, tc.want)
			}
		})
	}
}

// TestMulticastWorkload checks the compiled admission stream of a
// multicast channel: its establish carries the sink set, and the
// publish and the release follow as steps of their own.
func TestMulticastWorkload(t *testing.T) {
	doc := `{
		"slots": 100,
		"nodes": [1, 2, 3],
		"channels": [{"name": "m", "src": 1, "sinks": [2, 3], "c": 1, "p": 10, "d": 8}],
		"events": [
			{"at": 5, "kind": "publish", "channel": "m", "count": 2},
			{"at": 20, "kind": "release", "channel": "m"}
		]
	}`
	s, err := Load(strings.NewReader(doc))
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	steps, err := s.Steps()
	if err != nil {
		t.Fatalf("steps: %v", err)
	}
	if len(steps) != 3 || steps[0].kind != KindEstablish || steps[1].kind != KindPublish || steps[2].kind != KindRelease {
		t.Fatalf("steps = %+v, want establish, publish, release", steps)
	}
	if got := steps[0].defs[0].mspec().Sinks; len(got) != 2 || got[0] != rtether.NodeID(2) || got[1] != rtether.NodeID(3) {
		t.Errorf("establish step sinks = %v, want [2 3]", got)
	}
}
