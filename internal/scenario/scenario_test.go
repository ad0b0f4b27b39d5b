package scenario

import (
	"fmt"
	"os"
	"strings"
	"testing"
)

const validDoc = `{
  "name": "packaging line",
  "dps": "adps",
  "slots": 2000,
  "nodes": [1, 2, 3],
  "channels": [
    {"src": 1, "dst": 2, "c": 3, "p": 100, "d": 40},
    {"src": 1, "dst": 3, "c": 2, "p": 50, "d": 20, "offset": 7}
  ],
  "background": [
    {"src": 1, "dst": 3, "rate": 0.05}
  ]
}`

func TestLoadValid(t *testing.T) {
	s, err := Load(strings.NewReader(validDoc))
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "packaging line" || len(s.Channels) != 2 || len(s.Nodes) != 3 {
		t.Errorf("parsed: %+v", s)
	}
}

func TestLoadRejectsUnknownFields(t *testing.T) {
	doc := `{"slots": 100, "nodes": [1], "channels": [], "typo_field": 1}`
	if _, err := Load(strings.NewReader(doc)); err == nil {
		t.Error("unknown field accepted")
	}
}

func TestValidateErrors(t *testing.T) {
	cases := []struct {
		name string
		doc  string
		want string
	}{
		{"no slots", `{"nodes":[1],"channels":[]}`, "slots"},
		{"no nodes", `{"slots":10,"nodes":[],"channels":[]}`, "no nodes"},
		{"dup node", `{"slots":10,"nodes":[1,1],"channels":[]}`, "duplicate node"},
		{"bad dps", `{"slots":10,"dps":"xyz","nodes":[1],"channels":[]}`, "unknown dps"},
		{"bad discipline", `{"slots":10,"discipline":"lifo","nodes":[1],"channels":[]}`, "unknown discipline"},
		{
			"undeclared endpoint",
			`{"slots":10,"nodes":[1],"channels":[{"src":1,"dst":9,"c":1,"p":10,"d":10}]}`,
			"undeclared node",
		},
		{
			"invalid channel",
			`{"slots":10,"nodes":[1,2],"channels":[{"src":1,"dst":2,"c":3,"p":10,"d":4}]}`,
			"store-and-forward",
		},
		{
			"negative offset",
			`{"slots":10,"nodes":[1,2],"channels":[{"src":1,"dst":2,"c":1,"p":10,"d":10,"offset":-1}]}`,
			"negative offset",
		},
		{
			"bad background",
			`{"slots":10,"nodes":[1,2],"channels":[],"background":[{"src":1,"dst":2,"rate":0}]}`,
			"rate",
		},
		{
			"background undeclared node",
			`{"slots":10,"nodes":[1,2],"channels":[],"background":[{"src":1,"dst":9,"rate":1}]}`,
			"undeclared node",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Load(strings.NewReader(tc.doc))
			if err == nil {
				t.Fatal("accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("err %q, want mention of %q", err, tc.want)
			}
		})
	}
}

func TestRunScenario(t *testing.T) {
	s, err := Load(strings.NewReader(validDoc))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Accepted) != 2 || res.Rejected != 0 {
		t.Fatalf("accepted %d rejected %d", len(res.Accepted), res.Rejected)
	}
	if res.Report.TotalMisses() != 0 {
		t.Errorf("misses: %d", res.Report.TotalMisses())
	}
	if res.Report.TotalDelivered() == 0 {
		t.Error("no RT traffic")
	}
	if res.BgSent == 0 || res.Report.NonRTDelivered == 0 {
		t.Error("no background traffic")
	}
}

func TestRunScenarioMandatoryRejection(t *testing.T) {
	// Seven channels on one uplink under SDPS: the seventh is mandatory
	// and rejected, so the run fails loudly.
	var b strings.Builder
	b.WriteString(`{"slots":500,"nodes":[1,2,3,4,5,6,7,8],"channels":[`)
	for i := 0; i < 7; i++ {
		if i > 0 {
			b.WriteString(",")
		}
		b.WriteString(`{"src":1,"dst":` + string(rune('2'+i)) + `,"c":3,"p":100,"d":40}`)
	}
	b.WriteString(`]}`)
	s, err := Load(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err == nil || !strings.Contains(err.Error(), "rejected") {
		t.Errorf("mandatory rejection not surfaced: %v", err)
	}
}

func TestRunScenarioOptionalRejection(t *testing.T) {
	var b strings.Builder
	b.WriteString(`{"slots":500,"nodes":[1,2,3,4,5,6,7,8],"channels":[`)
	for i := 0; i < 7; i++ {
		if i > 0 {
			b.WriteString(",")
		}
		b.WriteString(`{"src":1,"dst":` + string(rune('2'+i)) + `,"c":3,"p":100,"d":40,"optional":true}`)
	}
	b.WriteString(`]}`)
	s, err := Load(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Accepted) != 6 || res.Rejected != 1 {
		t.Errorf("accepted %d rejected %d, want 6/1", len(res.Accepted), res.Rejected)
	}
}

func TestRunDeterministicAcrossCalls(t *testing.T) {
	run := func() int64 {
		s, err := Load(strings.NewReader(validDoc))
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		_, worst := res.Report.WorstDelay()
		return res.Report.TotalDelivered()*1_000_000 + int64(res.Report.NonRTDelivered)*1000 + worst
	}
	if a, b := run(), run(); a != b {
		t.Errorf("scenario runs diverged: %d vs %d", a, b)
	}
}

// TestPlantFixture plays the schema reference's example plant — three
// switches, deferred establishment, a mid-run reconfiguration and a
// churn generator — the way the two front-ends do: the admission-only
// replay decides every timeline event as the full run does, every
// admitted frame meets its guarantee, and a second run reports the
// same events.
func TestPlantFixture(t *testing.T) {
	load := func() *Scenario {
		f, err := os.Open("testdata/plant.json")
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		s, err := Load(f)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	replay, err := load().Replay()
	if err != nil {
		t.Fatal(err)
	}
	run := func() *Result {
		res, err := load().Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	ra, rr, rs := replay.EventCounts()
	aa, ar, as := a.EventCounts()
	if len(a.Events) == 0 || ra != aa || rr != ar || rs != as {
		t.Errorf("replay decided %d/%d/%d of %d events, run %d/%d/%d of %d",
			ra, rr, rs, len(replay.Events), aa, ar, as, len(a.Events))
	}
	if a.Report.TotalDelivered() == 0 || a.Report.TotalMisses() != 0 {
		t.Errorf("delivered %d frames with %d misses", a.Report.TotalDelivered(), a.Report.TotalMisses())
	}
	if fmt.Sprint(a.Events) != fmt.Sprint(b.Events) {
		t.Errorf("runs diverged:\n%v\n%v", a.Events, b.Events)
	}
}
