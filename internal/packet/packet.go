// Package packet implements the packet model used throughout the Newton
// reproduction: Ethernet/IPv4/TCP/UDP layers with wire-format encode and
// decode (gopacket-style layering, stdlib only), 5-tuple flow keys, and
// the 12-byte Result Snapshot (SP) header that cross-switch query
// execution piggybacks on packets (§5.1 of the paper).
package packet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"

	"github.com/newton-net/newton/internal/fields"
)

// Protocol numbers and well-known constants.
const (
	ProtoICMP = 1
	ProtoTCP  = 6
	ProtoUDP  = 17

	// EtherTypeIPv4 is the standard IPv4 EtherType.
	EtherTypeIPv4 = 0x0800
	// EtherTypeSP is the locally-administered EtherType that announces a
	// Result Snapshot shim between the Ethernet and IPv4 headers.
	EtherTypeSP = 0x88B5
)

// TCP flag bits.
const (
	FlagFIN = 1 << iota
	FlagSYN
	FlagRST
	FlagPSH
	FlagACK
	FlagURG
)

// Ethernet is the L2 header. Addresses are 48-bit values held in uint64.
type Ethernet struct {
	Dst, Src  uint64
	EtherType uint16
}

// IPv4 is the L3 header (options unsupported; IHL is always 5).
type IPv4 struct {
	TOS      uint8
	TotalLen uint16
	ID       uint16
	Flags    uint8 // 3 bits
	FragOff  uint16
	TTL      uint8
	Proto    uint8
	Src, Dst uint32
}

// TCP is the L4 TCP header (options unsupported; data offset is 5).
type TCP struct {
	SrcPort, DstPort uint16
	Seq, Ack         uint32
	Flags            uint8
	Window           uint16
}

// UDP is the L4 UDP header.
type UDP struct {
	SrcPort, DstPort uint16
	Length           uint16
}

// SPHeader is the 12-byte Result Snapshot header of cross-switch query
// execution. Operation keys are not carried — they are recomputed from
// the packet headers at every hop — so the snapshot holds only what a
// downstream partition cannot rederive: the two state results, the global
// result, and which query/partition produced them.
//
// Wire layout (big endian):
//
//	0..1   QID (12 bits) | Part (4 bits)
//	2..5   State result of metadata set 0
//	6..9   State result of metadata set 1
//	10..11 Global result (folded to 16 bits)
type SPHeader struct {
	QID    uint16 // 12 bits
	Part   uint8  // 4 bits: index of the next query partition to execute
	State0 uint32
	State1 uint32
	Global uint16
}

// SPHeaderLen is the on-wire size of the Result Snapshot header.
const SPHeaderLen = 12

// Packet is a decoded packet plus the simulation metadata that travels
// with it (virtual timestamp and ingress port).
//
// A value copy of a Packet copies SP as a pointer: when a switch attached
// the header (AttachSP), the copy's SP points into the original, and a
// later AttachSP on the original changes what the copy carries. Copy a
// packet before it meets a switch (SP nil, as trace generation does), or
// give the copy a header of its own with AttachSP(*p.SP).
type Packet struct {
	TS     uint64 // virtual time, nanoseconds
	InPort int

	Eth Ethernet
	IP  IPv4
	TCP *TCP
	UDP *UDP
	SP  *SPHeader

	PayloadLen int

	sp SPHeader // AttachSP's storage: the header the packet travels with
}

// AttachSP sets the packet's result snapshot header to h, held in the
// packet itself: attaching one on the packet path allocates nothing. It
// overwrites the header the packet arrived with if that was attached
// here too, so a switch reads the inbound header before it attaches.
func (p *Packet) AttachSP(h SPHeader) *SPHeader {
	p.sp = h
	p.SP = &p.sp
	return p.SP
}

// monitoredLen returns the length of the packet as its sender built it:
// a result snapshot a switch attached is not part of it, so every
// partition of a query sees the one PktLen.
func (p *Packet) monitoredLen() int {
	n := 14 + 20 + p.PayloadLen
	switch {
	case p.TCP != nil:
		n += 20
	case p.UDP != nil:
		n += 8
	}
	return n
}

// Len returns the packet's total on-wire length in bytes, a result
// snapshot header included.
func (p *Packet) Len() int {
	if p.SP != nil {
		return p.monitoredLen() + SPHeaderLen
	}
	return p.monitoredLen()
}

// FlowKey is the classic 5-tuple.
type FlowKey struct {
	Src, Dst     uint32
	SPort, DPort uint16
	Proto        uint8
}

// Reverse returns the key of the opposite direction of the flow.
func (k FlowKey) Reverse() FlowKey {
	return FlowKey{Src: k.Dst, Dst: k.Src, SPort: k.DPort, DPort: k.SPort, Proto: k.Proto}
}

// LaneHash hashes the 5-tuple direction-insensitively: both directions
// of a connection land on the same value, so sharded delivery keeps a
// whole conversation on one worker lane. The endpoint pair is ordered
// canonically before mixing (a splitmix64 finisher spreads the bits for
// modulo lane selection), and the whole computation is inline —
// allocation-free on the per-packet path.
func (k FlowKey) LaneHash() uint64 {
	a := uint64(k.Src)<<16 | uint64(k.SPort)
	b := uint64(k.Dst)<<16 | uint64(k.DPort)
	if a > b {
		a, b = b, a
	}
	h := a*0x9E3779B97F4A7C15 ^ b ^ uint64(k.Proto)<<56
	h ^= h >> 30
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 27
	h *= 0x94D049BB133111EB
	h ^= h >> 31
	return h
}

// String renders the key as "1.2.3.4:80 -> 5.6.7.8:1234/tcp".
func (k FlowKey) String() string {
	proto := fmt.Sprintf("%d", k.Proto)
	switch k.Proto {
	case ProtoTCP:
		proto = "tcp"
	case ProtoUDP:
		proto = "udp"
	case ProtoICMP:
		proto = "icmp"
	}
	return fmt.Sprintf("%s:%d -> %s:%d/%s",
		ipString(k.Src), k.SPort, ipString(k.Dst), k.DPort, proto)
}

func ipString(ip uint32) string {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], ip)
	return netip.AddrFrom4(b).String()
}

// Flow returns the packet's 5-tuple.
func (p *Packet) Flow() FlowKey {
	k := FlowKey{Src: p.IP.Src, Dst: p.IP.Dst, Proto: p.IP.Proto}
	switch {
	case p.TCP != nil:
		k.SPort, k.DPort = p.TCP.SrcPort, p.TCP.DstPort
	case p.UDP != nil:
		k.SPort, k.DPort = p.UDP.SrcPort, p.UDP.DstPort
	}
	return k
}

// Fields extracts the global header-field vector the Newton modules
// consume. This is the parser's contribution to the PHV.
func (p *Packet) Fields() fields.Vector {
	var v fields.Vector
	p.FieldsInto(&v)
	return v
}

// FieldsInto writes the global header-field vector directly into v,
// avoiding the copy of the by-value form on the per-packet path. All
// entries of v are (re)assigned; width masks are folded to constants so
// the whole extraction is straight-line stores.
func (p *Packet) FieldsInto(v *fields.Vector) {
	const (
		tsMask     = (uint64(1) << 48) - 1 // Timestamp natural width
		inPortMask = (uint64(1) << 9) - 1  // InPort natural width
	)
	v[fields.Timestamp] = p.TS & tsMask
	v[fields.InPort] = uint64(p.InPort) & inPortMask
	v[fields.SrcIP] = uint64(p.IP.Src)
	v[fields.DstIP] = uint64(p.IP.Dst)
	v[fields.Proto] = uint64(p.IP.Proto)
	v[fields.TTL] = uint64(p.IP.TTL)
	v[fields.PktLen] = uint64(p.monitoredLen())
	if p.TCP != nil {
		v[fields.SrcPort] = uint64(p.TCP.SrcPort)
		v[fields.DstPort] = uint64(p.TCP.DstPort)
		v[fields.TCPFlags] = uint64(p.TCP.Flags)
		v[fields.TCPSeq] = uint64(p.TCP.Seq)
		v[fields.TCPAck] = uint64(p.TCP.Ack)
	} else if p.UDP != nil {
		v[fields.SrcPort] = uint64(p.UDP.SrcPort)
		v[fields.DstPort] = uint64(p.UDP.DstPort)
		v[fields.TCPFlags], v[fields.TCPSeq], v[fields.TCPAck] = 0, 0, 0
	} else {
		v[fields.SrcPort], v[fields.DstPort] = 0, 0
		v[fields.TCPFlags], v[fields.TCPSeq], v[fields.TCPAck] = 0, 0, 0
	}
}

// Serialize encodes the packet to wire bytes, computing the IPv4 header
// checksum and filling in length fields. The payload is rendered as
// zeros (its content never matters to monitoring).
func (p *Packet) Serialize() []byte {
	buf := make([]byte, p.Len())
	off := 0

	// Ethernet.
	putMAC(buf[0:6], p.Eth.Dst)
	putMAC(buf[6:12], p.Eth.Src)
	et := p.Eth.EtherType
	if et == 0 {
		et = EtherTypeIPv4
	}
	if p.SP != nil {
		et = EtherTypeSP
	}
	binary.BigEndian.PutUint16(buf[12:14], et)
	off = 14

	// Result Snapshot shim, if present.
	if p.SP != nil {
		p.SP.marshal(buf[off : off+SPHeaderLen])
		off += SPHeaderLen
	}

	// IPv4.
	ip := buf[off : off+20]
	l4len := p.PayloadLen
	switch {
	case p.TCP != nil:
		l4len += 20
	case p.UDP != nil:
		l4len += 8
	}
	ip[0] = 0x45
	ip[1] = p.IP.TOS
	binary.BigEndian.PutUint16(ip[2:4], uint16(20+l4len))
	binary.BigEndian.PutUint16(ip[4:6], p.IP.ID)
	binary.BigEndian.PutUint16(ip[6:8], uint16(p.IP.Flags)<<13|p.IP.FragOff&0x1FFF)
	ip[8] = p.IP.TTL
	ip[9] = p.IP.Proto
	binary.BigEndian.PutUint32(ip[12:16], p.IP.Src)
	binary.BigEndian.PutUint32(ip[16:20], p.IP.Dst)
	binary.BigEndian.PutUint16(ip[10:12], checksum(ip))
	off += 20

	// L4.
	switch {
	case p.TCP != nil:
		t := buf[off : off+20]
		binary.BigEndian.PutUint16(t[0:2], p.TCP.SrcPort)
		binary.BigEndian.PutUint16(t[2:4], p.TCP.DstPort)
		binary.BigEndian.PutUint32(t[4:8], p.TCP.Seq)
		binary.BigEndian.PutUint32(t[8:12], p.TCP.Ack)
		t[12] = 5 << 4
		t[13] = p.TCP.Flags
		binary.BigEndian.PutUint16(t[14:16], p.TCP.Window)
	case p.UDP != nil:
		u := buf[off : off+8]
		binary.BigEndian.PutUint16(u[0:2], p.UDP.SrcPort)
		binary.BigEndian.PutUint16(u[2:4], p.UDP.DstPort)
		binary.BigEndian.PutUint16(u[4:6], uint16(8+p.PayloadLen))
	}
	return buf
}

// Decode parses wire bytes into a Packet. It accepts exactly the formats
// Serialize produces: Ethernet, optional SP shim, IPv4 without options,
// TCP without options or UDP.
func Decode(buf []byte) (*Packet, error) {
	if len(buf) < 14 {
		return nil, errors.New("packet: truncated ethernet header")
	}
	p := &Packet{}
	p.Eth.Dst = getMAC(buf[0:6])
	p.Eth.Src = getMAC(buf[6:12])
	p.Eth.EtherType = binary.BigEndian.Uint16(buf[12:14])
	off := 14

	if p.Eth.EtherType == EtherTypeSP {
		if len(buf) < off+SPHeaderLen {
			return nil, errors.New("packet: truncated SP header")
		}
		sp := &SPHeader{}
		sp.unmarshal(buf[off : off+SPHeaderLen])
		p.SP = sp
		off += SPHeaderLen
	} else if p.Eth.EtherType != EtherTypeIPv4 {
		return nil, fmt.Errorf("packet: unsupported ethertype %#04x", p.Eth.EtherType)
	}

	if len(buf) < off+20 {
		return nil, errors.New("packet: truncated IPv4 header")
	}
	ip := buf[off : off+20]
	if ip[0]>>4 != 4 {
		return nil, fmt.Errorf("packet: not IPv4 (version %d)", ip[0]>>4)
	}
	ihl := int(ip[0]&0x0F) * 4
	if ihl != 20 {
		return nil, fmt.Errorf("packet: IPv4 options unsupported (ihl %d)", ihl)
	}
	if checksum(ip) != 0 {
		return nil, errors.New("packet: bad IPv4 checksum")
	}
	p.IP.TOS = ip[1]
	p.IP.TotalLen = binary.BigEndian.Uint16(ip[2:4])
	p.IP.ID = binary.BigEndian.Uint16(ip[4:6])
	fo := binary.BigEndian.Uint16(ip[6:8])
	p.IP.Flags = uint8(fo >> 13)
	p.IP.FragOff = fo & 0x1FFF
	p.IP.TTL = ip[8]
	p.IP.Proto = ip[9]
	p.IP.Src = binary.BigEndian.Uint32(ip[12:16])
	p.IP.Dst = binary.BigEndian.Uint32(ip[16:20])
	off += 20

	switch p.IP.Proto {
	case ProtoTCP:
		if len(buf) < off+20 {
			return nil, errors.New("packet: truncated TCP header")
		}
		t := buf[off : off+20]
		p.TCP = &TCP{
			SrcPort: binary.BigEndian.Uint16(t[0:2]),
			DstPort: binary.BigEndian.Uint16(t[2:4]),
			Seq:     binary.BigEndian.Uint32(t[4:8]),
			Ack:     binary.BigEndian.Uint32(t[8:12]),
			Flags:   t[13],
			Window:  binary.BigEndian.Uint16(t[14:16]),
		}
		p.PayloadLen = int(p.IP.TotalLen) - 20 - 20
	case ProtoUDP:
		if len(buf) < off+8 {
			return nil, errors.New("packet: truncated UDP header")
		}
		u := buf[off : off+8]
		p.UDP = &UDP{
			SrcPort: binary.BigEndian.Uint16(u[0:2]),
			DstPort: binary.BigEndian.Uint16(u[2:4]),
			Length:  binary.BigEndian.Uint16(u[4:6]),
		}
		p.PayloadLen = int(p.IP.TotalLen) - 20 - 8
	default:
		p.PayloadLen = int(p.IP.TotalLen) - 20
	}
	if p.PayloadLen < 0 {
		return nil, errors.New("packet: inconsistent length fields")
	}
	return p, nil
}

func (h *SPHeader) marshal(b []byte) {
	binary.BigEndian.PutUint16(b[0:2], h.QID<<4|uint16(h.Part)&0x0F)
	binary.BigEndian.PutUint32(b[2:6], h.State0)
	binary.BigEndian.PutUint32(b[6:10], h.State1)
	binary.BigEndian.PutUint16(b[10:12], h.Global)
}

func (h *SPHeader) unmarshal(b []byte) {
	qp := binary.BigEndian.Uint16(b[0:2])
	h.QID = qp >> 4
	h.Part = uint8(qp & 0x0F)
	h.State0 = binary.BigEndian.Uint32(b[2:6])
	h.State1 = binary.BigEndian.Uint32(b[6:10])
	h.Global = binary.BigEndian.Uint16(b[10:12])
}

func putMAC(b []byte, v uint64) {
	b[0] = byte(v >> 40)
	b[1] = byte(v >> 32)
	b[2] = byte(v >> 24)
	b[3] = byte(v >> 16)
	b[4] = byte(v >> 8)
	b[5] = byte(v)
}

func getMAC(b []byte) uint64 {
	return uint64(b[0])<<40 | uint64(b[1])<<32 | uint64(b[2])<<24 |
		uint64(b[3])<<16 | uint64(b[4])<<8 | uint64(b[5])
}

// checksum computes the RFC 1071 internet checksum over b. When b already
// contains a checksum field, the result is 0 iff the checksum verifies.
func checksum(b []byte) uint16 {
	var sum uint32
	for i := 0; i+1 < len(b); i += 2 {
		sum += uint32(binary.BigEndian.Uint16(b[i : i+2]))
	}
	if len(b)%2 == 1 {
		sum += uint32(b[len(b)-1]) << 8
	}
	for sum>>16 != 0 {
		sum = sum&0xFFFF + sum>>16
	}
	return ^uint16(sum)
}

// IPv4Addr converts dotted-quad text to the uint32 address form used
// throughout the simulator. It panics on malformed input; use only with
// literals.
func IPv4Addr(s string) uint32 {
	a, err := netip.ParseAddr(s)
	if err != nil || !a.Is4() {
		panic(fmt.Sprintf("packet: bad IPv4 literal %q", s))
	}
	b := a.As4()
	return binary.BigEndian.Uint32(b[:])
}
