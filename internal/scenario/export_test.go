package scenario

import (
	"strings"
	"testing"
)

const exportDoc = `{
  "name": "export",
  "slots": 1000,
  "seed": 3,
  "nodes": [1, 2, 3],
  "channels": [
    {"name": "a", "src": 1, "dst": 2, "c": 1, "p": 100, "d": 40},
    {"src": 2, "dst": 3, "c": 1, "p": 100, "d": 40},
    {"name": "late", "src": 1, "dst": 3, "c": 1, "p": 100, "d": 40}
  ],
  "events": [
    {"at": 100, "kind": "establish", "channel": "late"},
    {"at": 200, "kind": "release", "channel": "a"},
    {"at": 300, "kind": "reconfigure", "channel": "late", "d": 60}
  ],
  "churn": [
    {"name": "g", "rate": 0.05, "holdMean": 100, "sources": [1], "destinations": [2, 3],
     "c": 1, "p": 100, "d": 40}
  ]
}`

func TestBuildNetwork(t *testing.T) {
	sc, err := Load(strings.NewReader(exportDoc))
	if err != nil {
		t.Fatal(err)
	}
	net, err := sc.BuildNetwork(1)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	// The network is configured but unloaded: nodes exist, channels don't.
	if got := len(net.Channels()); got != 0 {
		t.Errorf("BuildNetwork established %d channels, want 0", got)
	}
	if _, err := net.Establish(sc.Channels[0].spec()); err != nil {
		t.Errorf("declared node missing from built network: %v", err)
	}
}

func TestBuildNetworkRejectsInvalidDoc(t *testing.T) {
	sc := &Scenario{Slots: 100} // no nodes
	if _, err := sc.BuildNetwork(0); err == nil {
		t.Error("invalid document built a network")
	}
}

// TestWorkload checks the compiled admission stream: the static
// channels first, then every timeline event in playback order, with
// each channel's establish before its release.
func TestWorkload(t *testing.T) {
	sc, err := Load(strings.NewReader(exportDoc))
	if err != nil {
		t.Fatal(err)
	}
	steps, err := sc.Steps()
	if err != nil {
		t.Fatal(err)
	}
	// Static channels first: "a" and the unnamed one ("late" is deferred
	// to its timeline establish).
	if len(steps) < 5 {
		t.Fatalf("only %d steps: %+v", len(steps), steps)
	}
	if !steps[0].static || steps[0].Names()[0] != "a" || !steps[1].static || steps[1].Names()[0] != "" || steps[2].static {
		t.Errorf("static load steps wrong: %+v", steps[:3])
	}
	kinds := make(map[string]int)
	established := map[string]bool{"a": true}
	last := int64(0)
	for _, st := range steps[2:] {
		kinds[st.kind]++
		if st.at < last {
			t.Fatalf("timeline out of order: %d after %d", st.at, last)
		}
		last = st.at
		name := st.Names()[0]
		switch st.kind {
		case KindRelease:
			if !established[name] {
				t.Errorf("release of %q before its establish", name)
			}
			established[name] = false
		case KindEstablish:
			established[name] = true
			if name == "late" && (st.at != 100 || st.optional) {
				t.Errorf("late step wrong: %+v", st)
			}
			if strings.HasPrefix(name, "g#") && !st.optional {
				t.Errorf("churn arrival not optional: %+v", st)
			}
		}
	}
	if kinds[KindReconfigure] != 1 || kinds[KindRelease] < 2 || kinds[KindEstablish] < 2 {
		t.Errorf("stream incomplete: %v", kinds)
	}
}
