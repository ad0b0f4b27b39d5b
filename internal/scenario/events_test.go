package scenario

import (
	"strings"
	"testing"
)

// loadErr asserts that a document is rejected with an error mentioning
// want.
func loadErr(t *testing.T, doc, want string) {
	t.Helper()
	_, err := Load(strings.NewReader(doc))
	if err == nil {
		t.Fatalf("accepted, want error mentioning %q", want)
	}
	if !strings.Contains(err.Error(), want) {
		t.Errorf("err %q, want mention of %q", err, want)
	}
}

func TestEventValidationErrors(t *testing.T) {
	base := `{"slots":1000,"nodes":[1,2,3],"channels":[
		{"name":"a","src":1,"dst":2,"c":3,"p":100,"d":40},
		{"name":"b","src":1,"dst":3,"c":2,"p":50,"d":20}],`
	cases := []struct {
		name   string
		events string
		want   string
	}{
		{"unknown kind", `[{"at":10,"kind":"explode","channel":"a"}]`, "unknown event kind"},
		{"undefined channel", `[{"at":10,"kind":"release","channel":"zz"}]`, "undefined channel"},
		{"undefined in batch", `[{"at":10,"kind":"establishAll","channels":["a","zz"]}]`, "undefined channel"},
		{"no channel", `[{"at":10,"kind":"establish"}]`, "needs a channel name"},
		{"empty batch", `[{"at":10,"kind":"establishAll"}]`, "needs a channels list"},
		{"batch duplicate", `[{"at":10,"kind":"establishAll","channels":["a","a"]}]`, "listed twice"},
		{"out of range", `[{"at":1000,"kind":"release","channel":"a"}]`, "outside [0, 1000)"},
		{"negative at", `[{"at":-1,"kind":"release","channel":"a"}]`, "outside"},
		{"establish with params", `[{"at":10,"kind":"establish","channel":"a","c":1}]`, "use reconfigure"},
		{"reconfigure no-op", `[{"at":10,"kind":"reconfigure","channel":"a"}]`, "changes nothing"},
		{"reconfigure negative", `[{"at":10,"kind":"reconfigure","channel":"a","d":-4}]`, "negative channel parameter"},
		{"negative offset", `[{"at":10,"kind":"release","channel":"a","offset":-2}]`, "negative offset"},
		{"setBackground bad node", `[{"at":10,"kind":"setBackground","src":1,"dst":9,"rate":0.1}]`, "undeclared node"},
		{"setBackground negative rate", `[{"at":10,"kind":"setBackground","src":1,"dst":2,"rate":-1}]`, "negative rate"},
		{"setBackground with channel", `[{"at":10,"kind":"setBackground","src":1,"dst":2,"rate":1,"channel":"a"}]`, "not channels"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			loadErr(t, base+`"events":`+tc.events+`}`, tc.want)
		})
	}
}

func TestTimelineStateMachineErrors(t *testing.T) {
	base := `{"slots":1000,"nodes":[1,2,3],"channels":[
		{"name":"a","src":1,"dst":2,"c":3,"p":100,"d":40}],`
	cases := []struct {
		name   string
		events string
		want   string
	}{
		{
			"double establish",
			`[{"at":10,"kind":"establish","channel":"a"},{"at":20,"kind":"establish","channel":"a"}]`,
			"twice",
		},
		{
			// "a" is static (first reference is the release), so releasing
			// twice without re-establishing is impossible.
			"double release",
			`[{"at":10,"kind":"release","channel":"a"},{"at":20,"kind":"release","channel":"a"}]`,
			"not established",
		},
		{
			"reconfigure after release",
			`[{"at":10,"kind":"release","channel":"a"},{"at":20,"kind":"reconfigure","channel":"a","d":60}]`,
			"not established",
		},
		{
			"reconfigure into invalid spec",
			`[{"at":10,"kind":"reconfigure","channel":"a","d":2}]`,
			"invalid spec",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			loadErr(t, base+`"events":`+tc.events+`}`, tc.want)
		})
	}
}

func TestReestablishResetsDeclaredSpec(t *testing.T) {
	// A re-established channel requests its declared definition, not the
	// parameters a pre-release reconfigure left behind: the d=6
	// reconfigure must not poison the post-re-establishment state, so
	// the final c=3 (valid against the declared d=50) must pass.
	doc := `{"slots":1000,"nodes":[1,2],"channels":[
		{"name":"a","src":1,"dst":2,"c":1,"p":100,"d":50}],
		"events":[
			{"at":10,"kind":"reconfigure","channel":"a","d":6},
			{"at":20,"kind":"release","channel":"a"},
			{"at":30,"kind":"establish","channel":"a"},
			{"at":40,"kind":"reconfigure","channel":"a","c":3}]}`
	s, err := Load(strings.NewReader(doc))
	if err != nil {
		t.Fatalf("valid re-establishment timeline rejected: %v", err)
	}
	if _, err := s.Run(); err != nil {
		t.Errorf("run failed: %v", err)
	}
	// The inverse: a reconfigure invalid against the declared spec must
	// be caught at load time even when it would have been valid against
	// the stale pre-release parameters (c=6 fits d=50 but not the
	// declared d=10).
	bad := `{"slots":1000,"nodes":[1,2],"channels":[
		{"name":"a","src":1,"dst":2,"c":1,"p":100,"d":10}],
		"events":[
			{"at":10,"kind":"reconfigure","channel":"a","d":50},
			{"at":20,"kind":"release","channel":"a"},
			{"at":30,"kind":"establish","channel":"a"},
			{"at":40,"kind":"reconfigure","channel":"a","c":6}]}`
	loadErr(t, bad, "invalid spec")
}

func TestTopologyValidationErrors(t *testing.T) {
	cases := []struct {
		name string
		doc  string
		want string
	}{
		{
			"trunk unknown switch",
			`{"slots":10,"topology":{"switches":[0,1],"trunks":[[0,7]],
				"attachments":[{"node":1,"switch":0}]},"channels":[]}`,
			"unknown switch",
		},
		{
			"attachment unknown switch",
			`{"slots":10,"topology":{"switches":[0],
				"attachments":[{"node":1,"switch":3}]},"channels":[]}`,
			"unknown switch",
		},
		{
			"duplicate switch",
			`{"slots":10,"topology":{"switches":[0,0],
				"attachments":[{"node":1,"switch":0}]},"channels":[]}`,
			"duplicate switch",
		},
		{
			"self trunk",
			`{"slots":10,"topology":{"switches":[0],"trunks":[[0,0]],
				"attachments":[{"node":1,"switch":0}]},"channels":[]}`,
			"to itself",
		},
		{
			"node attached twice",
			`{"slots":10,"topology":{"switches":[0,1],"trunks":[[0,1]],
				"attachments":[{"node":1,"switch":0},{"node":1,"switch":1}]},"channels":[]}`,
			"attached twice",
		},
		{
			"no attachments",
			`{"slots":10,"topology":{"switches":[0]},"channels":[]}`,
			"no attachments",
		},
		{
			"nodes and topology",
			`{"slots":10,"nodes":[1],"topology":{"switches":[0],
				"attachments":[{"node":1,"switch":0}]},"channels":[]}`,
			"mutually exclusive",
		},
		{
			"background on fabric",
			`{"slots":10,"topology":{"switches":[0,1],"trunks":[[0,1]],
				"attachments":[{"node":1,"switch":0},{"node":2,"switch":1}]},
				"channels":[],"background":[{"src":1,"dst":2,"rate":0.1}]}`,
			"star network",
		},
		{
			"setBackground on fabric",
			`{"slots":10,"topology":{"switches":[0,1],"trunks":[[0,1]],
				"attachments":[{"node":1,"switch":0},{"node":2,"switch":1}]},
				"channels":[],"events":[{"at":1,"kind":"setBackground","src":1,"dst":2,"rate":0.1}]}`,
			"star network",
		},
		{
			"discipline on fabric",
			`{"slots":10,"discipline":"fifo","topology":{"switches":[0,1],"trunks":[[0,1]],
				"attachments":[{"node":1,"switch":0},{"node":2,"switch":1}]},"channels":[]}`,
			"EDF only",
		},
		{
			"queue cap on fabric",
			`{"slots":10,"nonRTQueueCap":16,"topology":{"switches":[0,1],"trunks":[[0,1]],
				"attachments":[{"node":1,"switch":0},{"node":2,"switch":1}]},"channels":[]}`,
			"RT traffic only",
		},
		{
			"duplicate channel name",
			`{"slots":10,"nodes":[1,2],"channels":[
				{"name":"x","src":1,"dst":2,"c":1,"p":10,"d":10},
				{"name":"x","src":2,"dst":1,"c":1,"p":10,"d":10}]}`,
			"duplicate channel name",
		},
		{
			"reserved name",
			`{"slots":10,"nodes":[1,2],"channels":[
				{"name":"x#1","src":1,"dst":2,"c":1,"p":10,"d":10}]}`,
			"reserved",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			loadErr(t, tc.doc, tc.want)
		})
	}
}

const dynamicStarDoc = `{
  "name": "dynamic star",
  "slots": 2000,
  "seed": 9,
  "nodes": [1, 2, 3],
  "channels": [
    {"name": "a", "src": 1, "dst": 2, "c": 3, "p": 100, "d": 40},
    {"name": "b", "src": 1, "dst": 3, "c": 2, "p": 50, "d": 20}
  ],
  "events": [
    {"at": 100,  "kind": "establish", "channel": "b"},
    {"at": 400,  "kind": "reconfigure", "channel": "a", "d": 60},
    {"at": 800,  "kind": "release", "channel": "b"},
    {"at": 900,  "kind": "setBackground", "src": 1, "dst": 2, "rate": 0.05},
    {"at": 1500, "kind": "setBackground", "src": 1, "dst": 2, "rate": 0}
  ]
}`

func TestRunDynamicStar(t *testing.T) {
	s, err := Load(strings.NewReader(dynamicStarDoc))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	// "b" is deferred to its establish event: only "a" loads statically.
	if len(res.Accepted) != 1 || res.Rejected != 0 {
		t.Fatalf("static accepted %d rejected %d, want 1/0", len(res.Accepted), res.Rejected)
	}
	if len(res.Events) != 5 {
		t.Fatalf("outcomes: %d, want 5", len(res.Events))
	}
	accepted, rejected, skipped := res.EventCounts()
	if accepted != 5 || rejected != 0 || skipped != 0 {
		t.Errorf("counts %d/%d/%d, want 5/0/0", accepted, rejected, skipped)
	}
	// The background flow exists only through setBackground events.
	if res.BgSent == 0 || res.Report.NonRTDelivered == 0 {
		t.Errorf("event-introduced background did not flow: sent %d delivered %d",
			res.BgSent, res.Report.NonRTDelivered)
	}
	if res.Report.TotalMisses() != 0 {
		t.Errorf("misses: %d", res.Report.TotalMisses())
	}
	if res.Report.TotalDelivered() == 0 {
		t.Error("no RT traffic")
	}
}

func TestOptionalEstablishRejectionSkipsRelease(t *testing.T) {
	// Six static channels saturate node 1's uplink under SDPS; the
	// seventh is established by an optional event and must be rejected,
	// and its later release skipped.
	var b strings.Builder
	b.WriteString(`{"slots":500,"nodes":[1,2,3,4,5,6,7,8],"channels":[`)
	for i := 0; i < 6; i++ {
		if i > 0 {
			b.WriteString(",")
		}
		b.WriteString(`{"src":1,"dst":` + string(rune('2'+i)) + `,"c":3,"p":100,"d":40}`)
	}
	b.WriteString(`,{"name":"extra","src":1,"dst":8,"c":3,"p":100,"d":40}],
		"events":[
			{"at":100,"kind":"establish","channel":"extra","optional":true},
			{"at":200,"kind":"release","channel":"extra"}]}`)
	s, err := Load(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	accepted, rejected, skipped := res.EventCounts()
	if accepted != 0 || rejected != 1 || skipped != 1 {
		t.Errorf("counts %d/%d/%d, want 0/1/1\n%v", accepted, rejected, skipped, res.Events)
	}
	if !res.Events[1].Skipped || res.Events[1].Detail != "never established" {
		t.Errorf("release outcome: %+v", res.Events[1])
	}
}

func TestMandatoryEventRejectionFailsRun(t *testing.T) {
	var b strings.Builder
	b.WriteString(`{"slots":500,"nodes":[1,2,3,4,5,6,7,8],"channels":[`)
	for i := 0; i < 6; i++ {
		if i > 0 {
			b.WriteString(",")
		}
		b.WriteString(`{"src":1,"dst":` + string(rune('2'+i)) + `,"c":3,"p":100,"d":40}`)
	}
	b.WriteString(`,{"name":"extra","src":1,"dst":8,"c":3,"p":100,"d":40}],
		"events":[{"at":100,"kind":"establish","channel":"extra"}]}`)
	s, err := Load(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err == nil || !strings.Contains(err.Error(), "rejected") {
		t.Errorf("mandatory event rejection not surfaced: %v", err)
	}
}

func TestEstablishAllEventIsAtomic(t *testing.T) {
	// Two batch members; the second overloads the shared uplink, so the
	// whole batch must be rejected and neither channel established.
	doc := `{"slots":500,"nodes":[1,2,3,4,5,6,7],"channels":[
		{"src":1,"dst":2,"c":3,"p":100,"d":40},
		{"src":1,"dst":3,"c":3,"p":100,"d":40},
		{"src":1,"dst":4,"c":3,"p":100,"d":40},
		{"src":1,"dst":5,"c":3,"p":100,"d":40},
		{"src":1,"dst":6,"c":3,"p":100,"d":40},
		{"name":"x","src":1,"dst":7,"c":3,"p":100,"d":40},
		{"name":"y","src":1,"dst":7,"c":3,"p":100,"d":40}],
		"events":[
			{"at":100,"kind":"establishAll","channels":["x","y"],"optional":true},
			{"at":200,"kind":"release","channel":"x"}]}`
	s, err := Load(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	// 5 static fit (uplink holds 6 under SDPS): batch of 2 would make 7.
	if got := len(res.Accepted); got != 5 {
		t.Fatalf("static accepted %d, want 5", got)
	}
	if res.Events[0].Accepted {
		t.Errorf("overloading batch accepted: %+v", res.Events[0])
	}
	if !res.Events[1].Skipped {
		t.Errorf("release of rejected batch member not skipped: %+v", res.Events[1])
	}
}

func TestRunFabricScenario(t *testing.T) {
	doc := `{
		"name": "fabric",
		"dps": "adps",
		"slots": 1500,
		"topology": {
			"switches": [0, 1],
			"trunks": [[0, 1]],
			"attachments": [
				{"node": 1, "switch": 0},
				{"node": 2, "switch": 1}
			]
		},
		"channels": [{"name": "x", "src": 1, "dst": 2, "c": 2, "p": 100, "d": 60}],
		"events": [
			{"at": 300, "kind": "reconfigure", "channel": "x", "d": 90},
			{"at": 900, "kind": "release", "channel": "x"}
		]
	}`
	s, err := Load(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Accepted) != 1 {
		t.Fatalf("static accepted %d, want 1", len(res.Accepted))
	}
	// Reconfigure on a 3-hop route: budgets must sum to the new deadline.
	if !strings.Contains(res.Events[0].Detail, "[") {
		t.Errorf("reconfigure outcome carries no budgets: %+v", res.Events[0])
	}
	if res.Report.TotalMisses() != 0 {
		t.Errorf("misses: %d", res.Report.TotalMisses())
	}
	if res.Report.TotalDelivered() == 0 {
		t.Error("no RT traffic delivered on the fabric")
	}
}

func TestReplayMatchesRunDecisions(t *testing.T) {
	s, err := Load(strings.NewReader(dynamicStarDoc))
	if err != nil {
		t.Fatal(err)
	}
	run, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	replay, err := s.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if replay.Report != nil {
		t.Error("replay produced a measurement report")
	}
	if len(run.Events) != len(replay.Events) {
		t.Fatalf("event counts differ: run %d, replay %d", len(run.Events), len(replay.Events))
	}
	for i := range run.Events {
		r, p := run.Events[i], replay.Events[i]
		if r.Accepted != p.Accepted || r.Skipped != p.Skipped || r.Kind != p.Kind || r.Subject != p.Subject {
			t.Errorf("event %d diverged: run %+v, replay %+v", i, r, p)
		}
	}
}
