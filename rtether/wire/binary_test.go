package wire

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"

	"repro/rtether"
)

// frameOf encodes with enc, reads the frame back and checks the header.
func frameOf(t *testing.T, raw []byte, wantType MsgType, wantReq uint32) Frame {
	t.Helper()
	f, _, err := ReadFrame(bytes.NewReader(raw), nil)
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	if f.Type != wantType || f.ReqID != wantReq {
		t.Fatalf("frame header = (%#x, %d), want (%#x, %d)", f.Type, f.ReqID, wantType, wantReq)
	}
	return f
}

func TestBinaryEstablishRoundTrip(t *testing.T) {
	s := Spec{Src: 3, Dst: 9, C: 2, P: 100, D: 37, Priority: -5}
	f := frameOf(t, AppendEstablish(nil, 42, s), MsgEstablish, 42)
	got, err := DecodeEstablish(f.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if got != s {
		t.Errorf("round trip changed the spec: %+v want %+v", got, s)
	}
}

func TestBinaryEstablishAllRoundTrip(t *testing.T) {
	specs := []Spec{
		{Src: 1, Dst: 2, C: 3, P: 50, D: 20},
		{Src: 2, Dst: 1, C: 1, P: 75, D: 30, Priority: 7},
	}
	f := frameOf(t, AppendEstablishAll(nil, 7, specs), MsgEstablishAll, 7)
	got, err := DecodeEstablishAll(f.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, specs) {
		t.Errorf("round trip changed the batch: %+v want %+v", got, specs)
	}
	// Empty batch stays empty, not nil-vs-zero confusion at the server.
	f = frameOf(t, AppendEstablishAll(nil, 8, nil), MsgEstablishAll, 8)
	if got, err := DecodeEstablishAll(f.Payload); err != nil || len(got) != 0 {
		t.Errorf("empty batch: got %v, %v", got, err)
	}
}

func TestBinaryMulticastRoundTrip(t *testing.T) {
	s := MulticastSpec{Src: 4, Sinks: []uint16{1, 2, 9}, C: 2, P: 60, D: 24, Priority: 3}
	f := frameOf(t, AppendMulticast(nil, 9, s), MsgMulticast, 9)
	got, err := DecodeMulticast(f.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, s) {
		t.Errorf("round trip changed the spec: %+v want %+v", got, s)
	}
}

func TestBinaryReleaseReconfigureRoundTrip(t *testing.T) {
	f := frameOf(t, AppendRelease(nil, 3, 77), MsgRelease, 3)
	if id, err := DecodeRelease(f.Payload); err != nil || id != 77 {
		t.Errorf("release round trip: %d, %v", id, err)
	}
	rc := ReconfigureRequest{ID: 12, C: 5, P: 90, D: 33}
	f = frameOf(t, AppendReconfigure(nil, 4, rc), MsgReconfigure, 4)
	if got, err := DecodeReconfigure(f.Payload); err != nil || got != rc {
		t.Errorf("reconfigure round trip: %+v, %v", got, err)
	}
}

func TestBinaryChannelReplyRoundTrip(t *testing.T) {
	r := ChannelReply{ID: 5, Budgets: []int64{17, 20}, GuaranteedDelay: 37}
	f := frameOf(t, AppendChannelReply(nil, 11, r), MsgChannel, 11)
	got, err := DecodeChannelReply(f.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, r) {
		t.Errorf("round trip changed the reply: %+v want %+v", got, r)
	}

	list := EstablishAllReply{Channels: []ChannelReply{r, {ID: 6, GuaranteedDelay: 9}}}
	f = frameOf(t, AppendChannelList(nil, 12, list), MsgChannelList, 12)
	gotList, err := DecodeChannelList(f.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotList, list) {
		t.Errorf("round trip changed the list: %+v want %+v", gotList, list)
	}
	if got := ChannelListLen(list); got != len(f.Payload) {
		t.Errorf("ChannelListLen = %d, encoded payload %d bytes", got, len(f.Payload))
	}
}

func TestBinaryStatsRoundTrip(t *testing.T) {
	r := StatsReply{
		Admission: rtether.AdmissionStats{
			Requests: 100, Accepted: 80, RejectedInvalid: 1, RejectedNoRoute: 2,
			RejectedUtilization: 3, RejectedDemand: 14, RejectedInconclusive: 0,
			Released: 20, LinksChecked: 4096, Repartitions: 90,
			Rerouted: 5, Degraded: 2, Preempted: 1, Lost: 3,
			MeanLinkUtilization: 0.734, LoadedLinks: 12,
		},
		Server: ServerStats{Establishes: 100, Flights: 40, MaxMerged: 9, Watchers: 2, Channels: 60},
	}
	f := frameOf(t, AppendStatsReply(nil, 13, r), MsgStatsReply, 13)
	got, err := DecodeStatsReply(f.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if got != r {
		t.Errorf("round trip changed the stats:\n got  %+v\n want %+v", got, r)
	}
}

// TestBinaryErrorRoundTrip pins that the binary error envelope is as
// lossless as the JSON one: a full typed AdmissionError survives encode,
// decode and the conversion back to *rtether.AdmissionError bit for bit.
func TestBinaryErrorRoundTrip(t *testing.T) {
	for _, dir := range []rtether.LinkDir{rtether.DirUp, rtether.DirDown, rtether.DirTrunk} {
		orig := &rtether.AdmissionError{
			Spec:        rtether.ChannelSpec{Src: 3, Dst: 7, C: 2, P: 50, D: 21, Priority: 2},
			Link:        "sw0→sw1",
			Node:        3,
			Dir:         dir,
			Hop:         2,
			Utilization: 0.9875,
			Slack:       -4,
			Reason:      "infeasible(demand) at t=40 (h=45), U=0.9875",
			Branch:      1,
			Sink:        9,
		}
		we := &Error{Code: CodeInfeasible, Message: "boom", Admission: FromAdmissionError(orig)}
		f := frameOf(t, AppendError(nil, 21, we), MsgError, 21)
		got, err := DecodeError(f.Payload)
		if err != nil {
			t.Fatal(err)
		}
		if got.Code != we.Code || got.Message != we.Message {
			t.Errorf("envelope changed: %+v", got)
		}
		if back := got.Admission.AdmissionError(); *back != *orig {
			t.Errorf("dir %v: round trip changed the error:\n got  %+v\n want %+v", dir, back, orig)
		}
	}
	// No admission diagnostics.
	we := &Error{Code: CodeClosed, Message: "rtetherd: closed"}
	f := frameOf(t, AppendError(nil, 22, we), MsgError, 22)
	got, err := DecodeError(f.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if got.Admission != nil || got.Code != we.Code || got.Message != we.Message {
		t.Errorf("envelope changed: %+v", got)
	}
}

// TestBinaryMatchesJSON is the seeded cross-codec property test: for
// randomized values of every shared message shape, decode(binary) must
// equal decode(json) — the two transports describe the same API objects.
func TestBinaryMatchesJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// Valid UTF-8 only: JSON replaces invalid sequences with U+FFFD while
	// the binary codec carries raw bytes faithfully, so comparing the two
	// is only meaningful on well-formed strings.
	alpha := []rune("abcdefgh →0123")
	randStr := func() string {
		n := rng.Intn(12)
		b := make([]rune, 0, n)
		for i := 0; i < n; i++ {
			b = append(b, alpha[rng.Intn(len(alpha))])
		}
		return string(b)
	}
	randSpec := func() Spec {
		return Spec{
			Src: uint16(rng.Intn(1 << 16)), Dst: uint16(rng.Intn(1 << 16)),
			C: rng.Int63(), P: rng.Int63(), D: -rng.Int63(),
			Priority: int32(rng.Int31() - 1<<30),
		}
	}
	for trial := 0; trial < 200; trial++ {
		spec := randSpec()
		var viaJSON Spec
		buf, _ := json.Marshal(spec)
		if err := json.Unmarshal(buf, &viaJSON); err != nil {
			t.Fatal(err)
		}
		f, _, err := ReadFrame(bytes.NewReader(AppendEstablish(nil, uint32(trial), spec)), nil)
		if err != nil {
			t.Fatal(err)
		}
		viaBin, err := DecodeEstablish(f.Payload)
		if err != nil {
			t.Fatal(err)
		}
		if viaBin != viaJSON {
			t.Fatalf("trial %d: codecs disagree on spec: bin %+v json %+v", trial, viaBin, viaJSON)
		}

		we := &Error{Code: randStr(), Message: randStr()}
		if rng.Intn(2) == 0 {
			we.Admission = &AdmissionError{
				Spec: randSpec(), Link: randStr(), Node: uint16(rng.Intn(1 << 16)),
				Dir: randStr(), Hop: rng.Intn(64) - 1,
				Utilization: rng.Float64(), Slack: rng.Int63() - 1<<40,
				Reason: randStr(), Branch: rng.Intn(8) - 1, Sink: uint16(rng.Intn(1 << 16)),
			}
		}
		var errViaJSON Error
		buf, _ = json.Marshal(we)
		if err := json.Unmarshal(buf, &errViaJSON); err != nil {
			t.Fatal(err)
		}
		f, _, err = ReadFrame(bytes.NewReader(AppendError(nil, 1, we)), nil)
		if err != nil {
			t.Fatal(err)
		}
		errViaBin, err := DecodeError(f.Payload)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(*errViaBin, errViaJSON) {
			t.Fatalf("trial %d: codecs disagree on error:\n bin  %+v\n json %+v", trial, errViaBin, errViaJSON)
		}
	}
}

// TestReadFramePipelined reads several frames appended to one buffer —
// the client's pipelining pattern — and checks payload/reqID pairing.
func TestReadFramePipelined(t *testing.T) {
	var raw []byte
	raw = AppendEstablish(raw, 1, Spec{Src: 1, Dst: 2, C: 1, P: 10, D: 5})
	raw = AppendRelease(raw, 2, 99)
	raw = AppendStats(raw, 3)
	r := bytes.NewReader(raw)
	var buf []byte
	var f Frame
	var err error
	for i, want := range []struct {
		t   MsgType
		req uint32
	}{{MsgEstablish, 1}, {MsgRelease, 2}, {MsgStats, 3}} {
		f, buf, err = ReadFrame(r, buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if f.Type != want.t || f.ReqID != want.req {
			t.Fatalf("frame %d = (%#x, %d), want (%#x, %d)", i, f.Type, f.ReqID, want.t, want.req)
		}
	}
}

// TestReadFrameRejectsGarbage pins the defensive properties of the frame
// reader: bad magic, bad version and oversized payloads are refused.
func TestReadFrameRejectsGarbage(t *testing.T) {
	good := AppendStats(nil, 1)

	bad := append([]byte(nil), good...)
	bad[0] = 'X'
	if _, _, err := ReadFrame(bytes.NewReader(bad), nil); err == nil {
		t.Error("bad magic accepted")
	}

	bad = append([]byte(nil), good...)
	bad[2] = 99
	if _, _, err := ReadFrame(bytes.NewReader(bad), nil); err == nil {
		t.Error("bad version accepted")
	}

	bad = append([]byte(nil), good...)
	bad[8], bad[9], bad[10], bad[11] = 0xff, 0xff, 0xff, 0xff
	if _, _, err := ReadFrame(bytes.NewReader(bad), nil); err == nil {
		t.Error("oversized payload accepted")
	}
}

// TestAppendEstablishZeroAllocs pins the client encode hot path at 0
// allocs/op once the buffer has warmed to frame size.
func TestAppendEstablishZeroAllocs(t *testing.T) {
	s := Spec{Src: 1, Dst: 2, C: 3, P: 100, D: 40, Priority: 1}
	buf := AppendEstablish(nil, 0, s)
	if avg := testing.AllocsPerRun(100, func() {
		buf = AppendEstablish(buf[:0], 7, s)
	}); avg != 0 {
		t.Errorf("AppendEstablish allocates %.1f allocs/op, want 0", avg)
	}
}
