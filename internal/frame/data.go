package frame

import (
	"encoding/binary"
	"fmt"
)

// rtTOS is the Type-of-Service value that marks RT traffic (§18.2.2:
// "The Type of Service (ToS) field is always set to value 255. Other
// values than 255 in the ToS field can be used for future services.")
const rtTOS = 0xFF

// RTTOS exposes the marker for tests and documentation.
const RTTOS = rtTOS

const (
	ipHeaderLen  = 20
	udpHeaderLen = 8
	protoUDP     = 17
	defaultTTL   = 64
	// MaxDeadline is the largest absolute deadline the stamped header can
	// carry: 48 bits across the IP source address and the upper half of
	// the IP destination address.
	MaxDeadline = (int64(1) << 48) - 1
	// MaxDataPayload is the UDP payload capacity of one RT data frame.
	MaxDataPayload = MaxPayload - ipHeaderLen - udpHeaderLen
)

// Data is one RT channel datagram as it appears on the wire after the RT
// layer has rewritten the IP header (§18.2.2): the IP source address and
// the 16 most significant bits of the IP destination address together
// carry the 48-bit absolute deadline, the 16 least significant bits of
// the IP destination carry the RT channel ID, and ToS is 255.
type Data struct {
	SrcMAC   MAC
	DstMAC   MAC
	Deadline int64  // absolute deadline in slots; 0 <= Deadline <= MaxDeadline
	Channel  uint16 // RT channel ID
	// Payload is the UDP payload (application data). DecodeData aliases
	// it into the decoded frame's bytes, without a copy: it is valid while
	// they are, and writing either writes both.
	Payload []byte
}

// EncodeData serializes the datagram into a full Ethernet frame.
func EncodeData(d Data) ([]byte, error) {
	if d.Deadline < 0 || d.Deadline > MaxDeadline {
		return nil, fmt.Errorf("%w: %d", ErrDeadlineRange, d.Deadline)
	}
	if len(d.Payload) > MaxDataPayload {
		return nil, fmt.Errorf("%w: %d > %d", ErrPayloadSize, len(d.Payload), MaxDataPayload)
	}
	total := ipHeaderLen + udpHeaderLen + len(d.Payload)
	b := make([]byte, HeaderLen+total)
	putHeader(b, Header{Dst: d.DstMAC, Src: d.SrcMAC, EtherType: EtherTypeIPv4})

	ip := b[HeaderLen : HeaderLen+ipHeaderLen]
	ip[0] = 0x45 // IPv4, 20-byte header
	ip[1] = rtTOS
	binary.BigEndian.PutUint16(ip[2:4], uint16(total))
	// Identification, flags, fragment offset: zero (RT frames never
	// fragment — they fit one slot by construction).
	ip[8] = defaultTTL
	ip[9] = protoUDP
	// Deadline stamping: src IP = deadline bits 47..16; dst IP high 16 =
	// deadline bits 15..0; dst IP low 16 = RT channel ID.
	binary.BigEndian.PutUint32(ip[12:16], uint32(d.Deadline>>16))
	binary.BigEndian.PutUint16(ip[16:18], uint16(d.Deadline&0xFFFF))
	binary.BigEndian.PutUint16(ip[18:20], d.Channel)
	binary.BigEndian.PutUint16(ip[10:12], Checksum(ip))

	udp := b[HeaderLen+ipHeaderLen:]
	// Ports are unused by the RT layer; carry the channel ID for
	// debuggability (real stacks would keep application ports).
	binary.BigEndian.PutUint16(udp[0:2], d.Channel)
	binary.BigEndian.PutUint16(udp[2:4], d.Channel)
	binary.BigEndian.PutUint16(udp[4:6], uint16(udpHeaderLen+len(d.Payload)))
	copy(udp[8:], d.Payload)
	return b, nil
}

// DecodeData parses an RT data frame, validating the IP version, ToS
// marker, header checksum and length fields. The result's Payload
// aliases b.
func DecodeData(b []byte) (Data, error) {
	h, err := ParseHeader(b)
	if err != nil {
		return Data{}, err
	}
	if h.EtherType != EtherTypeIPv4 {
		return Data{}, fmt.Errorf("%w: 0x%04x", ErrEtherType, h.EtherType)
	}
	if len(b) < HeaderLen+ipHeaderLen+udpHeaderLen {
		return Data{}, fmt.Errorf("%w: %d bytes", ErrTruncated, len(b))
	}
	ip := b[HeaderLen : HeaderLen+ipHeaderLen]
	if ip[0] != 0x45 {
		return Data{}, fmt.Errorf("%w: 0x%02x", ErrBadIPVersion, ip[0])
	}
	if ip[1] != rtTOS {
		return Data{}, fmt.Errorf("%w: ToS=%d", ErrNotRTData, ip[1])
	}
	if Checksum(ip) != 0 {
		// A correct header checksums to zero when the checksum field is
		// included in the sum.
		return Data{}, ErrBadChecksum
	}
	total := int(binary.BigEndian.Uint16(ip[2:4]))
	if total < ipHeaderLen+udpHeaderLen || HeaderLen+total > len(b) {
		return Data{}, fmt.Errorf("%w: IP total length %d, frame %d", ErrBadLength, total, len(b))
	}
	udp := b[HeaderLen+ipHeaderLen : HeaderLen+total]
	udpLen := int(binary.BigEndian.Uint16(udp[4:6]))
	if udpLen != len(udp) {
		return Data{}, fmt.Errorf("%w: UDP length %d, available %d", ErrBadLength, udpLen, len(udp))
	}

	deadline := int64(binary.BigEndian.Uint32(ip[12:16]))<<16 |
		int64(binary.BigEndian.Uint16(ip[16:18]))
	d := Data{
		SrcMAC:   h.Src,
		DstMAC:   h.Dst,
		Deadline: deadline,
		Channel:  binary.BigEndian.Uint16(ip[18:20]),
	}
	if payload := udp[8:]; len(payload) > 0 {
		d.Payload = payload
	}
	return d, nil
}

// PeekDeadline extracts the stamped absolute deadline and channel ID
// without a full decode — this is the fast path the switch output stage
// uses to insert a frame into the deadline-sorted queue.
func PeekDeadline(b []byte) (deadline int64, channel uint16, err error) {
	if len(b) < HeaderLen+ipHeaderLen {
		return 0, 0, fmt.Errorf("%w: %d bytes", ErrTruncated, len(b))
	}
	ip := b[HeaderLen : HeaderLen+ipHeaderLen]
	if ip[1] != rtTOS {
		return 0, 0, fmt.Errorf("%w: ToS=%d", ErrNotRTData, ip[1])
	}
	deadline = int64(binary.BigEndian.Uint32(ip[12:16]))<<16 |
		int64(binary.BigEndian.Uint16(ip[16:18]))
	channel = binary.BigEndian.Uint16(ip[18:20])
	return deadline, channel, nil
}

// Checksum computes the RFC 791 ones'-complement header checksum. Over a
// header whose checksum field is already filled in, a correct header sums
// to zero.
func Checksum(hdr []byte) uint16 {
	var sum uint32
	for i := 0; i+1 < len(hdr); i += 2 {
		sum += uint32(hdr[i])<<8 | uint32(hdr[i+1])
	}
	if len(hdr)%2 == 1 {
		sum += uint32(hdr[len(hdr)-1]) << 8
	}
	for sum > 0xFFFF {
		sum = (sum & 0xFFFF) + (sum >> 16)
	}
	return ^uint16(sum)
}
