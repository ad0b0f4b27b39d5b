package frame

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
	"testing/quick"
)

func sampleData() Data {
	return Data{
		SrcMAC:   NodeMAC(1),
		DstMAC:   NodeMAC(108),
		Deadline: 123456,
		Channel:  42,
		Payload:  []byte("sensor reading 17"),
	}
}

func TestDataRoundTrip(t *testing.T) {
	d := sampleData()
	b, err := EncodeData(d)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeData(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.SrcMAC != d.SrcMAC || got.DstMAC != d.DstMAC ||
		got.Deadline != d.Deadline || got.Channel != d.Channel ||
		!bytes.Equal(got.Payload, d.Payload) {
		t.Errorf("round trip: got %+v, want %+v", got, d)
	}
}

func TestDataRoundTripProperty(t *testing.T) {
	f := func(src, dst uint16, deadlineBits uint64, ch uint16, payload []byte) bool {
		if len(payload) > MaxDataPayload {
			payload = payload[:MaxDataPayload]
		}
		d := Data{
			SrcMAC:   NodeMAC(src),
			DstMAC:   NodeMAC(dst),
			Deadline: int64(deadlineBits % (1 << 48)),
			Channel:  ch,
			Payload:  payload,
		}
		b, err := EncodeData(d)
		if err != nil {
			return false
		}
		got, err := DecodeData(b)
		return err == nil &&
			got.Deadline == d.Deadline &&
			got.Channel == d.Channel &&
			bytes.Equal(got.Payload, d.Payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDataStampLayoutMatchesPaper(t *testing.T) {
	// §18.2.2: IP source address (32 bits) = deadline bits 47..16; the 16
	// MSB of the IP destination = deadline bits 15..0; the 16 LSB of the
	// IP destination = RT channel ID; ToS = 255.
	d := Data{
		SrcMAC:   NodeMAC(1),
		DstMAC:   NodeMAC(2),
		Deadline: 0x0000_A1B2_C3D4,
		Channel:  0xBEEF,
	}
	b, err := EncodeData(d)
	if err != nil {
		t.Fatal(err)
	}
	ip := b[HeaderLen : HeaderLen+20]
	if ip[1] != 255 {
		t.Errorf("ToS = %d, want 255", ip[1])
	}
	if src := binary.BigEndian.Uint32(ip[12:16]); src != 0x0000A1B2 {
		t.Errorf("IP src = %08x, want deadline[47:16]", src)
	}
	if hi := binary.BigEndian.Uint16(ip[16:18]); hi != 0xC3D4 {
		t.Errorf("IP dst high = %04x, want deadline[15:0]", hi)
	}
	if lo := binary.BigEndian.Uint16(ip[18:20]); lo != 0xBEEF {
		t.Errorf("IP dst low = %04x, want channel ID", lo)
	}
}

func TestDataDeadlineBounds(t *testing.T) {
	d := sampleData()
	d.Deadline = MaxDeadline
	if _, err := EncodeData(d); err != nil {
		t.Errorf("MaxDeadline rejected: %v", err)
	}
	d.Deadline = MaxDeadline + 1
	if _, err := EncodeData(d); !errors.Is(err, ErrDeadlineRange) {
		t.Errorf("over-range deadline: %v, want ErrDeadlineRange", err)
	}
	d.Deadline = -1
	if _, err := EncodeData(d); !errors.Is(err, ErrDeadlineRange) {
		t.Errorf("negative deadline: %v, want ErrDeadlineRange", err)
	}
}

func TestDataPayloadTooBig(t *testing.T) {
	d := sampleData()
	d.Payload = make([]byte, MaxDataPayload+1)
	if _, err := EncodeData(d); !errors.Is(err, ErrPayloadSize) {
		t.Errorf("oversize payload: %v, want ErrPayloadSize", err)
	}
	d.Payload = make([]byte, MaxDataPayload)
	if _, err := EncodeData(d); err != nil {
		t.Errorf("max payload rejected: %v", err)
	}
}

func TestDataChecksumTamperDetected(t *testing.T) {
	b, err := EncodeData(sampleData())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeData(b); err != nil {
		t.Fatalf("pristine frame rejected: %v", err)
	}
	for _, idx := range []int{HeaderLen + 1, HeaderLen + 12, HeaderLen + 19} {
		tampered := append([]byte(nil), b...)
		tampered[idx] ^= 0x40
		if _, err := DecodeData(tampered); err == nil {
			t.Errorf("tampering byte %d went undetected", idx)
		}
	}
}

func TestDecodeDataErrors(t *testing.T) {
	good, _ := EncodeData(sampleData())

	if _, err := DecodeData(good[:HeaderLen+10]); !errors.Is(err, ErrTruncated) {
		t.Errorf("truncated: %v, want ErrTruncated", err)
	}

	wrongEther := append([]byte(nil), good...)
	wrongEther[12], wrongEther[13] = 0x88, 0xD7
	if _, err := DecodeData(wrongEther); !errors.Is(err, ErrEtherType) {
		t.Errorf("wrong EtherType: %v, want ErrEtherType", err)
	}

	wrongVer := append([]byte(nil), good...)
	wrongVer[HeaderLen] = 0x46
	if _, err := DecodeData(wrongVer); !errors.Is(err, ErrBadIPVersion) && !errors.Is(err, ErrBadChecksum) {
		t.Errorf("wrong version: %v", err)
	}

	// Rewrite ToS and fix the checksum: must fail with ErrNotRTData.
	plain := append([]byte(nil), good...)
	plain[HeaderLen+1] = 0
	plain[HeaderLen+10], plain[HeaderLen+11] = 0, 0
	ck := Checksum(plain[HeaderLen : HeaderLen+20])
	binary.BigEndian.PutUint16(plain[HeaderLen+10:HeaderLen+12], ck)
	if _, err := DecodeData(plain); !errors.Is(err, ErrNotRTData) {
		t.Errorf("plain ToS: %v, want ErrNotRTData", err)
	}
}

func TestPeekDeadline(t *testing.T) {
	d := sampleData()
	b, _ := EncodeData(d)
	deadline, ch, err := PeekDeadline(b)
	if err != nil {
		t.Fatal(err)
	}
	if deadline != d.Deadline || ch != d.Channel {
		t.Errorf("PeekDeadline = (%d, %d), want (%d, %d)", deadline, ch, d.Deadline, d.Channel)
	}
	if _, _, err := PeekDeadline(b[:HeaderLen+5]); !errors.Is(err, ErrTruncated) {
		t.Errorf("short peek: %v, want ErrTruncated", err)
	}
	b[HeaderLen+1] = 7
	if _, _, err := PeekDeadline(b); !errors.Is(err, ErrNotRTData) {
		t.Errorf("non-RT peek: %v, want ErrNotRTData", err)
	}
}

func TestChecksumKnownVector(t *testing.T) {
	// Classic example header from RFC 1071 discussions.
	hdr := []byte{
		0x45, 0x00, 0x00, 0x73, 0x00, 0x00, 0x40, 0x00,
		0x40, 0x11, 0x00, 0x00, 0xc0, 0xa8, 0x00, 0x01,
		0xc0, 0xa8, 0x00, 0xc7,
	}
	ck := Checksum(hdr)
	if ck != 0xb861 {
		t.Errorf("Checksum = %04x, want b861", ck)
	}
	binary.BigEndian.PutUint16(hdr[10:12], ck)
	if Checksum(hdr) != 0 {
		t.Error("header with correct checksum does not sum to zero")
	}
}

func TestChecksumOddLength(t *testing.T) {
	// Odd-length buffers pad the trailing byte with zero.
	odd := []byte{0x12, 0x34, 0x56}
	want := ^uint16(0x1234 + 0x5600)
	if got := Checksum(odd); got != want {
		t.Errorf("odd Checksum = %04x, want %04x", got, want)
	}
}

// TestDecodeDataAliasesPayload pins the decode contract: the payload is
// the frame's own bytes, not a copy, so a decode allocates nothing.
func TestDecodeDataAliasesPayload(t *testing.T) {
	b, err := EncodeData(sampleData())
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeData(b)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-1] ^= 0xff
	if want := b[len(b)-len(got.Payload):]; !bytes.Equal(got.Payload, want) || &got.Payload[0] != &want[0] {
		t.Fatal("decoded payload does not alias the frame")
	}
	if allocs := testing.AllocsPerRun(100, func() { _, _ = DecodeData(b) }); allocs != 0 {
		t.Errorf("DecodeData allocates %v times, want 0", allocs)
	}
}
