package wire

import (
	"bytes"
	"testing"
)

// FuzzDecodeBinary throws arbitrary bytes at every payload decoder and
// the frame reader: none may panic, and whatever decodes successfully
// must re-encode to an identical payload (the codec has no redundant
// representations).
func FuzzDecodeBinary(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendEstablish(nil, 1, Spec{Src: 1, Dst: 2, C: 3, P: 10, D: 5}))
	f.Add(AppendMulticast(nil, 2, MulticastSpec{Src: 1, Sinks: []uint16{2, 3}, C: 1, P: 8, D: 6}))
	f.Add(AppendEstablishAll(nil, 3, []Spec{{Src: 1, Dst: 2, C: 1, P: 4, D: 2}}))
	f.Add(AppendError(nil, 4, &Error{Code: CodeInfeasible, Message: "m", Admission: &AdmissionError{Link: "l", Dir: "up"}}))
	f.Add(AppendChannelList(nil, 5, EstablishAllReply{Channels: []ChannelReply{{ID: 1, Budgets: []int64{3, 4}}}}))

	f.Fuzz(func(t *testing.T, data []byte) {
		// The frame reader must survive arbitrary prefixes.
		if fr, _, err := ReadFrame(bytes.NewReader(data), nil); err == nil {
			payload := fr.Payload
			if s, err := DecodeEstablish(payload); err == nil {
				if got := AppendEstablish(nil, fr.ReqID, s); !bytes.Equal(got[FrameHeaderLen:], payload) {
					t.Errorf("establish re-encode diverges: %x vs %x", got[FrameHeaderLen:], payload)
				}
			}
			if s, err := DecodeMulticast(payload); err == nil {
				if got := AppendMulticast(nil, fr.ReqID, s); !bytes.Equal(got[FrameHeaderLen:], payload) {
					t.Errorf("multicast re-encode diverges: %x vs %x", got[FrameHeaderLen:], payload)
				}
			}
			if specs, err := DecodeEstablishAll(payload); err == nil {
				if got := AppendEstablishAll(nil, fr.ReqID, specs); !bytes.Equal(got[FrameHeaderLen:], payload) {
					t.Errorf("establishAll re-encode diverges: %x vs %x", got[FrameHeaderLen:], payload)
				}
			}
			if r, err := DecodeChannelList(payload); err == nil {
				if got := AppendChannelList(nil, fr.ReqID, r); !bytes.Equal(got[FrameHeaderLen:], payload) {
					t.Errorf("channel list re-encode diverges: %x vs %x", got[FrameHeaderLen:], payload)
				}
			}
			if e, err := DecodeError(payload); err == nil {
				if got := AppendError(nil, fr.ReqID, e); !bytes.Equal(got[FrameHeaderLen:], payload) {
					t.Errorf("error re-encode diverges: %x vs %x", got[FrameHeaderLen:], payload)
				}
			}
			if id, err := DecodeRelease(payload); err == nil {
				if got := AppendRelease(nil, fr.ReqID, id); !bytes.Equal(got[FrameHeaderLen:], payload) {
					t.Errorf("release re-encode diverges: %x vs %x", got[FrameHeaderLen:], payload)
				}
			}
			if r, err := DecodeReconfigure(payload); err == nil {
				if got := AppendReconfigure(nil, fr.ReqID, r); !bytes.Equal(got[FrameHeaderLen:], payload) {
					t.Errorf("reconfigure re-encode diverges: %x vs %x", got[FrameHeaderLen:], payload)
				}
			}
			if r, err := DecodeChannelReply(payload); err == nil {
				if got := AppendChannelReply(nil, fr.ReqID, r); !bytes.Equal(got[FrameHeaderLen:], payload) {
					t.Errorf("channel reply re-encode diverges: %x vs %x", got[FrameHeaderLen:], payload)
				}
			}
			if r, err := DecodeStatsReply(payload); err == nil {
				if got := AppendStatsReply(nil, fr.ReqID, r); !bytes.Equal(got[FrameHeaderLen:], payload) {
					t.Errorf("stats reply re-encode diverges: %x vs %x", got[FrameHeaderLen:], payload)
				}
			}
		}
		// Raw payload decoders (no frame header) must never panic either.
		_, _ = DecodeEstablish(data)
		_, _ = DecodeEstablishAll(data)
		_, _ = DecodeMulticast(data)
		_, _ = DecodeRelease(data)
		_, _ = DecodeReconfigure(data)
		_, _ = DecodeChannelReply(data)
		_, _ = DecodeChannelList(data)
		_, _ = DecodeStatsReply(data)
		_, _ = DecodeError(data)
	})
}
