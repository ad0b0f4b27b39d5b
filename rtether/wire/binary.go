// Binary framing for the latency-critical subset of the rtetherd API.
//
// The HTTP/JSON surface (wire.go) is the compatibility contract; this
// file defines an equivalent binary encoding for the six operations a
// latency-sensitive controller issues in its steady state — establish,
// establishAll, multicast, release, reconfigure, stats — served by
// rtetherd on a dedicated listener (-binaddr) and spoken by
// rtether/client when configured with TransportBinary. Everything else
// (watch streams, topics, metrics, health) stays on HTTP/JSON.
//
// A frame is:
//
//	offset size  field
//	0      2     magic "RT" (0x52 0x54)
//	2      1     version (currently 2; v2 widened channel IDs to 32 bits)
//	3      1     message type (Msg* constants)
//	4      4     request ID, big-endian (echoed verbatim in the reply)
//	8      4     payload length, big-endian (≤ MaxFramePayload)
//	12     n     payload
//
// Requests and replies share the framing; the request ID lets a client
// pipeline many requests on one connection and match replies out of
// order — which is what keeps the server-side coalescer seeing the same
// concurrency as N parallel HTTP requests. All integers are big-endian;
// strings are uint16-length-prefixed UTF-8; float64 travels as its IEEE
// 754 bit pattern. Conversions are lossless: in particular a feasibility
// rejection's full AdmissionError survives the round trip bit for bit,
// exactly as the JSON envelope (wire_test.go and binary_test.go pin
// both).
//
// Encoders are append-style (Append*(dst, ...) []byte) so a client or
// server can reuse one buffer across requests and encode without
// allocating; decoders are pure bounds-checked reads that never panic
// on truncated or corrupt input (binary_fuzz_test.go). Both ends send
// frames through a GroupWriter (groupwrite.go), which writes the frames
// queued behind a write in progress in one following write(2).
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// Frame constants.
const (
	// Magic0 and Magic1 open every frame ("RT").
	Magic0 = 0x52
	Magic1 = 0x54
	// BinaryVersion is the framing version this package speaks.
	// Version 2 widened channel IDs from 16 to 32 bits (ChannelReply,
	// Release, Reconfigure) and extended the stats reply with the
	// sweep-skip counter (links a decision did not move, so its sweep
	// passed them untested) and the sweep-time accumulator.
	BinaryVersion = 2
	// FrameHeaderLen is the fixed frame header size.
	FrameHeaderLen = 12
	// MaxFramePayload caps a frame's payload; ReadFrame rejects larger
	// announcements without allocating, so a corrupt or hostile length
	// field cannot balloon memory.
	MaxFramePayload = 1 << 20
)

// MsgType identifies a frame's payload schema. Requests use the low
// range, replies the 0x40 range; MsgError may answer any request.
type MsgType uint8

// Request message types.
const (
	MsgEstablish    MsgType = 0x01 // payload: Spec
	MsgEstablishAll MsgType = 0x02 // payload: []Spec
	MsgMulticast    MsgType = 0x03 // payload: MulticastSpec
	MsgRelease      MsgType = 0x04 // payload: channel ID
	MsgReconfigure  MsgType = 0x05 // payload: ReconfigureRequest
	MsgStats        MsgType = 0x06 // payload: empty
)

// Reply message types.
const (
	MsgChannel     MsgType = 0x41 // payload: ChannelReply
	MsgChannelList MsgType = 0x42 // payload: EstablishAllReply
	MsgReleased    MsgType = 0x44 // payload: empty
	MsgStatsReply  MsgType = 0x46 // payload: StatsReply
	MsgError       MsgType = 0x7f // payload: Error envelope
)

// Binary decode errors.
var (
	// ErrBadMagic reports a frame that does not open with "RT".
	ErrBadMagic = errors.New("wire: bad frame magic")
	// ErrBadVersion reports an unsupported framing version.
	ErrBadVersion = errors.New("wire: unsupported frame version")
	// ErrFrameTooLarge reports a payload length above MaxFramePayload.
	ErrFrameTooLarge = errors.New("wire: frame payload too large")
	// ErrTruncated reports a payload shorter than its schema requires.
	ErrTruncated = errors.New("wire: truncated payload")
	// ErrTrailingBytes reports payload bytes past the end of the schema.
	ErrTrailingBytes = errors.New("wire: trailing bytes in payload")
	// ErrMalformed reports a field holding a value no encoder writes,
	// such as a presence byte other than 0 or 1.
	ErrMalformed = errors.New("wire: malformed payload")
)

// Frame is one decoded frame header plus its payload. The payload
// aliases the read buffer; callers that retain it across reads must
// copy.
type Frame struct {
	Type    MsgType
	ReqID   uint32
	Payload []byte
}

// beginFrame appends a frame header with a zero length field, returning
// the extended buffer and the header's offset for endFrame.
func beginFrame(dst []byte, t MsgType, reqID uint32) ([]byte, int) {
	start := len(dst)
	dst = append(dst, Magic0, Magic1, BinaryVersion, byte(t))
	dst = binary.BigEndian.AppendUint32(dst, reqID)
	dst = append(dst, 0, 0, 0, 0)
	return dst, start
}

// endFrame patches the payload length of the frame opened at start.
func endFrame(dst []byte, start int) []byte {
	binary.BigEndian.PutUint32(dst[start+8:], uint32(len(dst)-start-FrameHeaderLen))
	return dst
}

// ReadFrame reads one frame from r into buf (grown as needed) and
// returns the parsed frame plus the possibly-grown buffer for reuse.
// The frame's payload aliases the returned buffer.
func ReadFrame(r io.Reader, buf []byte) (Frame, []byte, error) {
	if cap(buf) < FrameHeaderLen {
		buf = make([]byte, 0, 4096)
	}
	hdr := buf[:FrameHeaderLen]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return Frame{}, buf, err
	}
	if hdr[0] != Magic0 || hdr[1] != Magic1 {
		return Frame{}, buf, ErrBadMagic
	}
	if hdr[2] != BinaryVersion {
		return Frame{}, buf, fmt.Errorf("%w: %d", ErrBadVersion, hdr[2])
	}
	f := Frame{Type: MsgType(hdr[3]), ReqID: binary.BigEndian.Uint32(hdr[4:])}
	n := binary.BigEndian.Uint32(hdr[8:])
	if n > MaxFramePayload {
		return Frame{}, buf, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	if uint32(cap(buf)) < n {
		buf = make([]byte, 0, n)
	}
	f.Payload = buf[:n]
	if _, err := io.ReadFull(r, f.Payload); err != nil {
		return Frame{}, buf, err
	}
	return f, buf, nil
}

// ---- primitive appends ----

func appendStr(dst []byte, s string) []byte {
	if len(s) > math.MaxUint16 {
		s = s[:math.MaxUint16]
	}
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(s)))
	return append(dst, s...)
}

func appendI64(dst []byte, v int64) []byte {
	return binary.BigEndian.AppendUint64(dst, uint64(v))
}

func appendF64(dst []byte, v float64) []byte {
	return binary.BigEndian.AppendUint64(dst, math.Float64bits(v))
}

// ---- primitive reads: a cursor that latches the first error ----

type binReader struct {
	p   []byte
	off int
	bad bool
}

func (b *binReader) need(n int) bool {
	if b.bad || b.off+n > len(b.p) {
		b.bad = true
		return false
	}
	return true
}

func (b *binReader) u8() uint8 {
	if !b.need(1) {
		return 0
	}
	v := b.p[b.off]
	b.off++
	return v
}

func (b *binReader) u16() uint16 {
	if !b.need(2) {
		return 0
	}
	v := binary.BigEndian.Uint16(b.p[b.off:])
	b.off += 2
	return v
}

func (b *binReader) u32() uint32 {
	if !b.need(4) {
		return 0
	}
	v := binary.BigEndian.Uint32(b.p[b.off:])
	b.off += 4
	return v
}

func (b *binReader) i32() int32 { return int32(b.u32()) }

func (b *binReader) i64() int64 {
	if !b.need(8) {
		return 0
	}
	v := binary.BigEndian.Uint64(b.p[b.off:])
	b.off += 8
	return int64(v)
}

func (b *binReader) f64() float64 {
	if !b.need(8) {
		return 0
	}
	v := math.Float64frombits(binary.BigEndian.Uint64(b.p[b.off:]))
	b.off += 8
	return v
}

func (b *binReader) str() string {
	n := int(b.u16())
	if !b.need(n) {
		return ""
	}
	v := string(b.p[b.off : b.off+n])
	b.off += n
	return v
}

// finish reports the terminal decode verdict: an error when anything
// read short or when bytes remain past the schema.
func (b *binReader) finish() error {
	if b.bad {
		return ErrTruncated
	}
	if b.off != len(b.p) {
		return ErrTrailingBytes
	}
	return nil
}

// ---- Spec ----

func appendSpec(dst []byte, s Spec) []byte {
	dst = binary.BigEndian.AppendUint16(dst, s.Src)
	dst = binary.BigEndian.AppendUint16(dst, s.Dst)
	dst = appendI64(dst, s.C)
	dst = appendI64(dst, s.P)
	dst = appendI64(dst, s.D)
	return binary.BigEndian.AppendUint32(dst, uint32(s.Priority))
}

func (b *binReader) spec() Spec {
	return Spec{
		Src: b.u16(), Dst: b.u16(),
		C: b.i64(), P: b.i64(), D: b.i64(),
		Priority: b.i32(),
	}
}

// ---- requests ----

// AppendEstablish appends one MsgEstablish frame. Append-style so a
// pipelining client encodes into a reused buffer without allocating.
func AppendEstablish(dst []byte, reqID uint32, s Spec) []byte {
	dst, start := beginFrame(dst, MsgEstablish, reqID)
	dst = appendSpec(dst, s)
	return endFrame(dst, start)
}

// DecodeEstablish parses a MsgEstablish payload.
func DecodeEstablish(p []byte) (Spec, error) {
	b := binReader{p: p}
	s := b.spec()
	return s, b.finish()
}

// AppendEstablishAll appends one MsgEstablishAll frame.
func AppendEstablishAll(dst []byte, reqID uint32, specs []Spec) []byte {
	dst, start := beginFrame(dst, MsgEstablishAll, reqID)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(specs)))
	for _, s := range specs {
		dst = appendSpec(dst, s)
	}
	return endFrame(dst, start)
}

// DecodeEstablishAll parses a MsgEstablishAll payload.
func DecodeEstablishAll(p []byte) ([]Spec, error) {
	b := binReader{p: p}
	n := int(b.u32())
	const specLen = 2 + 2 + 8 + 8 + 8 + 4
	if b.bad || n > (len(p)-b.off)/specLen {
		return nil, ErrTruncated
	}
	specs := make([]Spec, n)
	for i := range specs {
		specs[i] = b.spec()
	}
	return specs, b.finish()
}

// AppendMulticast appends one MsgMulticast frame.
func AppendMulticast(dst []byte, reqID uint32, s MulticastSpec) []byte {
	dst, start := beginFrame(dst, MsgMulticast, reqID)
	dst = binary.BigEndian.AppendUint16(dst, s.Src)
	dst = appendI64(dst, s.C)
	dst = appendI64(dst, s.P)
	dst = appendI64(dst, s.D)
	dst = binary.BigEndian.AppendUint32(dst, uint32(s.Priority))
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(s.Sinks)))
	for _, sink := range s.Sinks {
		dst = binary.BigEndian.AppendUint16(dst, sink)
	}
	return endFrame(dst, start)
}

// DecodeMulticast parses a MsgMulticast payload.
func DecodeMulticast(p []byte) (MulticastSpec, error) {
	b := binReader{p: p}
	s := MulticastSpec{
		Src: b.u16(),
		C:   b.i64(), P: b.i64(), D: b.i64(),
		Priority: b.i32(),
	}
	n := int(b.u16())
	if b.bad || n > (len(p)-b.off)/2 {
		return MulticastSpec{}, ErrTruncated
	}
	s.Sinks = make([]uint16, n)
	for i := range s.Sinks {
		s.Sinks[i] = b.u16()
	}
	return s, b.finish()
}

// AppendRelease appends one MsgRelease frame.
func AppendRelease(dst []byte, reqID uint32, id uint32) []byte {
	dst, start := beginFrame(dst, MsgRelease, reqID)
	dst = binary.BigEndian.AppendUint32(dst, id)
	return endFrame(dst, start)
}

// DecodeRelease parses a MsgRelease payload.
func DecodeRelease(p []byte) (uint32, error) {
	b := binReader{p: p}
	id := b.u32()
	return id, b.finish()
}

// AppendReconfigure appends one MsgReconfigure frame.
func AppendReconfigure(dst []byte, reqID uint32, r ReconfigureRequest) []byte {
	dst, start := beginFrame(dst, MsgReconfigure, reqID)
	dst = binary.BigEndian.AppendUint32(dst, r.ID)
	dst = appendI64(dst, r.C)
	dst = appendI64(dst, r.P)
	dst = appendI64(dst, r.D)
	return endFrame(dst, start)
}

// DecodeReconfigure parses a MsgReconfigure payload.
func DecodeReconfigure(p []byte) (ReconfigureRequest, error) {
	b := binReader{p: p}
	r := ReconfigureRequest{ID: b.u32(), C: b.i64(), P: b.i64(), D: b.i64()}
	return r, b.finish()
}

// AppendStats appends one MsgStats request frame (empty payload).
func AppendStats(dst []byte, reqID uint32) []byte {
	dst, start := beginFrame(dst, MsgStats, reqID)
	return endFrame(dst, start)
}

// ---- replies ----

func appendChannelReplyBody(dst []byte, r ChannelReply) []byte {
	dst = binary.BigEndian.AppendUint32(dst, r.ID)
	dst = appendI64(dst, r.GuaranteedDelay)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(r.Budgets)))
	for _, bgt := range r.Budgets {
		dst = appendI64(dst, bgt)
	}
	return dst
}

func (b *binReader) channelReply() ChannelReply {
	r := ChannelReply{ID: b.u32(), GuaranteedDelay: b.i64()}
	n := int(b.u16())
	if b.bad || n > (len(b.p)-b.off)/8 {
		b.bad = true
		return r
	}
	if n > 0 {
		r.Budgets = make([]int64, n)
		for i := range r.Budgets {
			r.Budgets[i] = b.i64()
		}
	}
	return r
}

// AppendChannelReply appends one MsgChannel reply frame.
func AppendChannelReply(dst []byte, reqID uint32, r ChannelReply) []byte {
	dst, start := beginFrame(dst, MsgChannel, reqID)
	dst = appendChannelReplyBody(dst, r)
	return endFrame(dst, start)
}

// DecodeChannelReply parses a MsgChannel payload.
func DecodeChannelReply(p []byte) (ChannelReply, error) {
	b := binReader{p: p}
	r := b.channelReply()
	return r, b.finish()
}

// AppendChannelList appends one MsgChannelList reply frame.
func AppendChannelList(dst []byte, reqID uint32, r EstablishAllReply) []byte {
	dst, start := beginFrame(dst, MsgChannelList, reqID)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(r.Channels)))
	for _, ch := range r.Channels {
		dst = appendChannelReplyBody(dst, ch)
	}
	return endFrame(dst, start)
}

// ChannelListLen returns the payload length of the MsgChannelList frame
// AppendChannelList writes for r, without encoding it.
func ChannelListLen(r EstablishAllReply) int {
	n := 4
	for _, ch := range r.Channels {
		n += 4 + 8 + 2 + 8*len(ch.Budgets)
	}
	return n
}

// DecodeChannelList parses a MsgChannelList payload.
func DecodeChannelList(p []byte) (EstablishAllReply, error) {
	b := binReader{p: p}
	n := int(b.u32())
	const minReplyLen = 4 + 8 + 2
	if b.bad || n > (len(p)-b.off)/minReplyLen {
		return EstablishAllReply{}, ErrTruncated
	}
	r := EstablishAllReply{Channels: make([]ChannelReply, n)}
	for i := range r.Channels {
		r.Channels[i] = b.channelReply()
	}
	return r, b.finish()
}

// AppendReleased appends one MsgReleased reply frame (empty payload).
func AppendReleased(dst []byte, reqID uint32) []byte {
	dst, start := beginFrame(dst, MsgReleased, reqID)
	return endFrame(dst, start)
}

// AppendStatsReply appends one MsgStatsReply frame.
func AppendStatsReply(dst []byte, reqID uint32, r StatsReply) []byte {
	dst, start := beginFrame(dst, MsgStatsReply, reqID)
	a := r.Admission
	for _, v := range [...]int64{
		int64(a.Requests), int64(a.Accepted), int64(a.RejectedInvalid),
		int64(a.RejectedNoRoute), int64(a.RejectedUtilization),
		int64(a.RejectedDemand), int64(a.RejectedInconclusive),
		int64(a.Released), int64(a.LinksChecked), int64(a.VerifyCacheHits),
		int64(a.Repartitions),
		int64(a.Rerouted), int64(a.Degraded), int64(a.Preempted),
		int64(a.Lost), int64(a.LoadedLinks), a.SweepNs,
	} {
		dst = appendI64(dst, v)
	}
	dst = appendF64(dst, a.MeanLinkUtilization)
	s := r.Server
	for _, v := range [...]int64{s.Establishes, s.Flights, s.MaxMerged, s.Watchers, s.Channels} {
		dst = appendI64(dst, v)
	}
	return endFrame(dst, start)
}

// DecodeStatsReply parses a MsgStatsReply payload.
func DecodeStatsReply(p []byte) (StatsReply, error) {
	b := binReader{p: p}
	var r StatsReply
	a := &r.Admission
	for _, dst := range [...]*int{
		&a.Requests, &a.Accepted, &a.RejectedInvalid,
		&a.RejectedNoRoute, &a.RejectedUtilization,
		&a.RejectedDemand, &a.RejectedInconclusive,
		&a.Released, &a.LinksChecked, &a.VerifyCacheHits,
		&a.Repartitions,
		&a.Rerouted, &a.Degraded, &a.Preempted,
		&a.Lost, &a.LoadedLinks,
	} {
		*dst = int(b.i64())
	}
	a.SweepNs = b.i64()
	a.MeanLinkUtilization = b.f64()
	s := &r.Server
	for _, dst := range [...]*int64{&s.Establishes, &s.Flights, &s.MaxMerged, &s.Watchers, &s.Channels} {
		*dst = b.i64()
	}
	return r, b.finish()
}

// ---- error envelope ----

// AppendError appends one MsgError reply frame carrying the full wire
// error envelope, admission diagnostics included.
func AppendError(dst []byte, reqID uint32, e *Error) []byte {
	dst, start := beginFrame(dst, MsgError, reqID)
	dst = appendStr(dst, e.Code)
	dst = appendStr(dst, e.Message)
	if e.Admission == nil {
		dst = append(dst, 0)
		return endFrame(dst, start)
	}
	dst = append(dst, 1)
	ae := e.Admission
	dst = appendSpec(dst, ae.Spec)
	dst = appendStr(dst, ae.Link)
	dst = binary.BigEndian.AppendUint16(dst, ae.Node)
	dst = appendStr(dst, ae.Dir)
	dst = binary.BigEndian.AppendUint32(dst, uint32(int32(ae.Hop)))
	dst = appendF64(dst, ae.Utilization)
	dst = appendI64(dst, ae.Slack)
	dst = appendStr(dst, ae.Reason)
	dst = binary.BigEndian.AppendUint32(dst, uint32(int32(ae.Branch)))
	dst = binary.BigEndian.AppendUint16(dst, ae.Sink)
	return endFrame(dst, start)
}

// DecodeError parses a MsgError payload back into the envelope.
func DecodeError(p []byte) (*Error, error) {
	b := binReader{p: p}
	e := &Error{Code: b.str(), Message: b.str()}
	// Only 0 and 1 are written, so every payload has one encoding.
	present := b.u8()
	if present > 1 {
		return nil, ErrMalformed
	}
	if present == 1 {
		ae := &AdmissionError{}
		ae.Spec = b.spec()
		ae.Link = b.str()
		ae.Node = b.u16()
		ae.Dir = b.str()
		ae.Hop = int(b.i32())
		ae.Utilization = b.f64()
		ae.Slack = b.i64()
		ae.Reason = b.str()
		ae.Branch = int(b.i32())
		ae.Sink = b.u16()
		e.Admission = ae
	}
	if err := b.finish(); err != nil {
		return nil, err
	}
	return e, nil
}
