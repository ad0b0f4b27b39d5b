package server

import (
	"encoding/binary"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/rtether"
	"repro/rtether/wire"
)

// newStarServer serves a star of nodes 1..n, torn down with the test.
func newStarServer(tb testing.TB, n int) *Server {
	rtnet := rtether.New()
	for i := 1; i <= n; i++ {
		rtnet.MustAddNode(rtether.NodeID(i))
	}
	s := New(Config{Network: rtnet})
	tb.Cleanup(func() { s.Close(); _ = rtnet.Close() })
	return s
}

// TestBinaryInFlightBounded replays a peer that pipelines 200 000 stats
// frames (2.4 MB) and never reads a reply. Each frame's handler blocks
// writing its reply, so without a per-connection cap every frame the
// peer sends becomes a parked goroutine; with it the reader stops at
// maxBatch frames in flight and the peer's writes stall instead.
func TestBinaryInFlightBounded(t *testing.T) {
	s := newStarServer(t, 2)
	var frames []byte
	for i := uint32(0); i < 200000; i++ {
		frames = wire.AppendStats(frames, i)
	}
	base := runtime.NumGoroutine()
	peer, conn := net.Pipe()
	done := make(chan struct{})
	go func() { defer close(done); s.serveBinaryConn(conn) }()
	go func() { _, _ = peer.Write(frames) }()
	peak := 0
	for end := time.Now().Add(500 * time.Millisecond); time.Now().Before(end); time.Sleep(10 * time.Millisecond) {
		peak = max(peak, runtime.NumGoroutine()-base)
	}
	peer.Close()
	<-done
	if peak > maxBatch+16 {
		t.Fatalf("a peer that does not read replies grew the daemon by %d goroutines, want at most %d", peak, maxBatch+16)
	}
	if peak < maxBatch {
		t.Fatalf("peak %d goroutines: the peer never filled the %d in-flight slots", peak, maxBatch)
	}
}

// countingConn counts the complete reply frames in the byte stream the
// server writes, cutting it at each frame's 12-byte header and length
// field, however the frames are grouped into writes. It counts every
// byte the server tries to write, taken by the peer or not, so a reply
// past the last one the peer reads is counted too. It also keeps the
// length of every write as it is made.
type countingConn struct {
	net.Conn
	mu     sync.Mutex
	rest   []byte // written bytes of a frame not yet complete
	frames int64
	sizes  []int
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.sizes = append(c.sizes, len(p))
	c.rest = append(c.rest, p...)
	for len(c.rest) >= wire.FrameHeaderLen {
		end := wire.FrameHeaderLen + int(binary.BigEndian.Uint32(c.rest[8:]))
		if len(c.rest) < end {
			break
		}
		c.frames++
		c.rest = c.rest[end:]
	}
	c.mu.Unlock()
	return c.Conn.Write(p)
}

// writes returns the lengths of the writes made so far.
func (c *countingConn) writes() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]int(nil), c.sizes...)
}

// TestBinaryUnreadPeerQueueBounded replays TestBinaryInFlightBounded's
// peer, which pipelines 200 000 stats frames and reads nothing, and
// bounds the reply bytes the daemon queues meanwhile. The first reply
// write blocks, since nothing reads it; once the peer starts reading,
// the next write carries everything queued behind it, which must stay
// within wire.MaxQueued.
func TestBinaryUnreadPeerQueueBounded(t *testing.T) {
	s := newStarServer(t, 2)
	var frames []byte
	for i := uint32(0); i < 200000; i++ {
		frames = wire.AppendStats(frames, i)
	}
	peer, pc := net.Pipe()
	conn := &countingConn{Conn: pc}
	done := make(chan struct{})
	go func() { defer close(done); s.serveBinaryConn(conn) }()
	go func() { _, _ = peer.Write(frames) }()
	time.Sleep(500 * time.Millisecond)
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		buf := make([]byte, 64<<10)
		for {
			if _, err := peer.Read(buf); err != nil {
				return
			}
		}
	}()
	for deadline := time.Now().Add(5 * time.Second); len(conn.writes()) < 2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("no second write after the peer started reading")
		}
	}
	peer.Close()
	<-done
	<-drained
	w := conn.writes()
	if w[1] > wire.MaxQueued {
		t.Fatalf("a peer that read nothing for 500 ms left %d reply bytes queued, want at most %d", w[1], wire.MaxQueued)
	}
}

// TestBinaryDurationObservedBeforeReply pipelines binary establishes
// on one connection and, after reading each reply, reads the establish
// duration histogram: its count must already include every reply read
// so far. The pipe is synchronous, so a reply becomes readable exactly
// when the server writes it; an observation recorded after the write
// shows up here as a count one short.
func TestBinaryDurationObservedBeforeReply(t *testing.T) {
	const n = 32
	s := newStarServer(t, n+1)
	var frames []byte
	for i := 0; i < n; i++ {
		frames = wire.AppendEstablish(frames, uint32(i+1), wire.Spec{Src: 1, Dst: uint16(i + 2), C: 1, P: 1000, D: 400})
	}
	peer, pc := net.Pipe()
	done := make(chan struct{})
	go func() { defer close(done); s.serveBinaryConn(pc) }()
	go func() { _, _ = peer.Write(frames) }()
	dur := s.frames[wire.MsgEstablish].dur
	var buf []byte
	for read := int64(1); read <= n; read++ {
		var rep wire.Frame
		var err error
		if rep, buf, err = wire.ReadFrame(peer, buf); err != nil {
			t.Fatalf("reading reply %d: %v", read, err)
		}
		if rep.Type == wire.MsgError {
			we, _ := wire.DecodeError(rep.Payload)
			t.Fatalf("request %d refused: %v", rep.ReqID, we)
		}
		if got := dur.Count(); got < read {
			t.Fatalf("after %d replies the establish histogram counts %d", read, got)
		}
	}
	peer.Close()
	<-done
}

// fuzzRecords encodes request frames as the fuzz input format: per
// frame, its type byte, a big-endian uint16 payload length, and the
// payload.
func fuzzRecords(frames ...[]byte) []byte {
	var out []byte
	for _, f := range frames {
		out = append(out, f[3])
		out = binary.BigEndian.AppendUint16(out, uint16(len(f)-wire.FrameHeaderLen))
		out = append(out, f[wire.FrameHeaderLen:]...)
	}
	return out
}

// FuzzBinaryDispatch sends arbitrary request frames — any type, any
// payload — down one in-process connection. Every frame must get exactly
// one reply carrying its request ID: the op's reply type or an error
// envelope for a known type, bad_request for an unknown one. The hosted
// network has no nodes, so every admission is refused before the kernel
// runs: the target exercises the dispatch path, not the cost of a
// decision on arbitrary channel parameters.
func FuzzBinaryDispatch(f *testing.F) {
	spec := wire.Spec{Src: 1, Dst: 2, C: 1, P: 100, D: 40}
	f.Add(fuzzRecords(
		wire.AppendEstablish(nil, 0, spec),
		wire.AppendEstablishAll(nil, 0, []wire.Spec{spec, {Src: 2, Dst: 3, C: 1, P: 50, D: 20}}),
		wire.AppendMulticast(nil, 0, wire.MulticastSpec{Src: 3, Sinks: []uint16{1, 2}, C: 1, P: 100, D: 40}),
		wire.AppendReconfigure(nil, 0, wire.ReconfigureRequest{ID: 1, D: 60}),
		wire.AppendRelease(nil, 0, 1),
		wire.AppendStats(nil, 0),
	))
	f.Add(fuzzRecords(wire.AppendChannelReply(nil, 0, wire.ChannelReply{ID: 1}), wire.AppendError(nil, 0, &wire.Error{Code: "x"})))
	f.Add([]byte{0, 0, 0, 0xff, 0, 1, 9})
	s := newStarServer(f, 0)
	f.Fuzz(func(t *testing.T, data []byte) {
		var frames []byte
		var types []wire.MsgType
		for len(data) >= 3 {
			n := int(binary.BigEndian.Uint16(data[1:])) % (len(data) - 2)
			frames = append(frames, wire.Magic0, wire.Magic1, wire.BinaryVersion, data[0])
			frames = binary.BigEndian.AppendUint32(frames, uint32(len(types)+1))
			frames = binary.BigEndian.AppendUint32(frames, uint32(n))
			frames = append(frames, data[3:3+n]...)
			types = append(types, wire.MsgType(data[0]))
			data = data[3+n:]
		}
		peer, pc := net.Pipe()
		conn := &countingConn{Conn: pc}
		done := make(chan struct{})
		go func() { defer close(done); s.serveBinaryConn(conn) }()
		go func() { _, _ = peer.Write(frames) }()
		answered := make([]bool, len(types))
		var buf []byte
		for range types {
			var rep wire.Frame
			var err error
			rep, buf, err = wire.ReadFrame(peer, buf)
			if err != nil {
				t.Fatalf("reading reply: %v", err)
			}
			i := int(rep.ReqID) - 1
			if i < 0 || i >= len(types) || answered[i] {
				t.Fatalf("reply for request ID %d, which is unknown or already answered", rep.ReqID)
			}
			answered[i] = true
			op := s.frames[types[i]]
			if rep.Type == wire.MsgError {
				we, err := wire.DecodeError(rep.Payload)
				if err != nil {
					t.Fatalf("request %d: undecodable error reply: %v", i+1, err)
				}
				if op == nil && we.Code != wire.CodeBadRequest {
					t.Fatalf("unknown type %#x answered %q, want %q", uint8(types[i]), we.Code, wire.CodeBadRequest)
				}
				continue
			}
			if op == nil || rep.Type != op.reply {
				t.Fatalf("request %d of type %#x answered with type %#x", i+1, uint8(types[i]), uint8(rep.Type))
			}
		}
		peer.Close()
		<-done
		if got := conn.frames; got != int64(len(types)) {
			t.Fatalf("%d request frames got %d reply frames", len(types), got)
		}
	})
}

// TestDocsMatchOpTable holds the prose reference to the op table: the
// Endpoints table and the binary request/reply type lines of
// docs/server.md, and the msg= label list of docs/observability.md.
func TestDocsMatchOpTable(t *testing.T) {
	s := newStarServer(t, 1)
	read := func(name string) string {
		b, err := os.ReadFile(filepath.Join("..", "..", "docs", name))
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	between := func(doc, from, to string) string {
		i := strings.Index(doc, from)
		j := strings.Index(doc[i+1:], to)
		if i < 0 || j < 0 {
			t.Fatalf("no %q … %q in the docs", from, to)
		}
		return doc[i : i+1+j]
	}
	same := func(what string, got, want []string) {
		sort.Strings(got)
		sort.Strings(want)
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("%s drifted from the op table:\n docs  %q\n table %q", what, got, want)
		}
	}
	serverDoc := read("server.md")

	routes := []string{"GET " + wire.WatchPath, "GET " + wire.SubscribePath, "GET /metrics"}
	var reqs, replies, names []string
	replyTypes := map[wire.MsgType]bool{wire.MsgError: true}
	for _, op := range s.ops() {
		routes = append(routes, op.method+" "+op.path)
		if op.frame != nil {
			reqs = append(reqs, fmt.Sprintf("%02x %s", uint8(op.msg), op.name))
			names = append(names, op.name)
			replyTypes[op.reply] = true
		}
	}
	for r := range replyTypes {
		replies = append(replies, fmt.Sprintf("%02x", uint8(r)))
	}

	var got []string
	row := regexp.MustCompile("(?m)^\\| `(GET|POST) ([^`?]+)")
	for _, m := range row.FindAllStringSubmatch(between(serverDoc, "## Endpoints", "\n## "), -1) {
		got = append(got, m[1]+" "+m[2])
	}
	same("docs/server.md Endpoints table", got, routes)

	got = nil
	code := regexp.MustCompile("`0x([0-9a-f]{2})`\\s+(\\w+)")
	for _, m := range code.FindAllStringSubmatch(between(serverDoc, "Request types:", "Reply types:"), -1) {
		got = append(got, m[1]+" "+m[2])
	}
	same("docs/server.md request types", got, reqs)
	got = nil
	for _, m := range regexp.MustCompile("`0x([0-9a-f]{2})`").FindAllStringSubmatch(between(serverDoc, "Reply types:", "error."), -1) {
		got = append(got, m[1])
	}
	same("docs/server.md reply types", got, replies)

	got = nil
	label := between(read("observability.md"), "`rtether_binary_request_duration_ns{msg=", "\n")
	for _, m := range regexp.MustCompile("`(\\w+)`").FindAllStringSubmatch(label, -1) {
		got = append(got, m[1])
	}
	same("docs/observability.md msg= labels", got, names)
}
