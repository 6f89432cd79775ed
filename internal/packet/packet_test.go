package packet

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/newton-net/newton/internal/fields"
)

func tcpPacket() *Packet {
	return &Packet{
		TS:     123456789,
		InPort: 3,
		Eth:    Ethernet{Dst: 0x0000_5E00_5301, Src: 0x0000_5E00_5302},
		IP: IPv4{
			TTL: 64, Proto: ProtoTCP,
			Src: IPv4Addr("192.168.1.10"), Dst: IPv4Addr("10.0.0.1"),
		},
		TCP:        &TCP{SrcPort: 50123, DstPort: 443, Seq: 1000, Ack: 2000, Flags: FlagSYN, Window: 65535},
		PayloadLen: 100,
	}
}

func TestSerializeDecodeTCP(t *testing.T) {
	p := tcpPacket()
	buf := p.Serialize()
	got, err := Decode(buf)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got.IP.Src != p.IP.Src || got.IP.Dst != p.IP.Dst || got.IP.Proto != ProtoTCP {
		t.Errorf("IP mismatch: %+v", got.IP)
	}
	if got.TCP == nil || got.TCP.SrcPort != 50123 || got.TCP.DstPort != 443 || got.TCP.Flags != FlagSYN {
		t.Errorf("TCP mismatch: %+v", got.TCP)
	}
	if got.PayloadLen != 100 {
		t.Errorf("PayloadLen = %d, want 100", got.PayloadLen)
	}
	if got.Len() != p.Len() {
		t.Errorf("Len mismatch: %d vs %d", got.Len(), p.Len())
	}
}

func TestSerializeDecodeUDP(t *testing.T) {
	p := &Packet{
		IP:         IPv4{TTL: 64, Proto: ProtoUDP, Src: 1, Dst: 2},
		UDP:        &UDP{SrcPort: 53, DstPort: 33333},
		PayloadLen: 60,
	}
	got, err := Decode(p.Serialize())
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got.UDP == nil || got.UDP.SrcPort != 53 {
		t.Fatalf("UDP mismatch: %+v", got.UDP)
	}
	if got.UDP.Length != 68 {
		t.Errorf("UDP length = %d, want 68", got.UDP.Length)
	}
}

func TestSerializeDecodeWithSP(t *testing.T) {
	p := tcpPacket()
	p.SP = &SPHeader{QID: 0x7FF, Part: 5, State0: 0xDEADBEEF, State1: 42, Global: 999}
	buf := p.Serialize()
	got, err := Decode(buf)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got.SP == nil {
		t.Fatal("SP header lost")
	}
	if *got.SP != *p.SP {
		t.Errorf("SP mismatch: %+v vs %+v", got.SP, p.SP)
	}
	if got.TCP == nil || got.TCP.DstPort != 443 {
		t.Error("inner headers corrupted by SP shim")
	}
	if len(buf) != p.Len() {
		t.Errorf("wire len %d != Len() %d", len(buf), p.Len())
	}
}

func TestSPOverheadIs12Bytes(t *testing.T) {
	p := tcpPacket()
	without := len(p.Serialize())
	p.SP = &SPHeader{}
	with := len(p.Serialize())
	if with-without != SPHeaderLen {
		t.Errorf("SP overhead = %d bytes, want %d", with-without, SPHeaderLen)
	}
	// Paper claim: <1% bandwidth overhead at 1500-byte packets.
	if frac := float64(SPHeaderLen) / 1500; frac >= 0.01 {
		t.Errorf("SP overhead fraction %f not < 1%%", frac)
	}
}

// TestPktLenExcludesSP: the length a query keys on is the monitored
// packet's, so a later partition of a cross-switch query, which sees the
// packet with a result snapshot attached, reads the same PktLen as the
// first. Len stays the wire length.
func TestPktLenExcludesSP(t *testing.T) {
	p := tcpPacket()
	var before, after fields.Vector
	p.FieldsInto(&before)
	wire := p.Len()
	p.AttachSP(SPHeader{QID: 1, Part: 1})
	p.FieldsInto(&after)
	if got, want := after.Get(fields.PktLen), before.Get(fields.PktLen); got != want {
		t.Errorf("PktLen with a snapshot = %d, want %d", got, want)
	}
	if p.Len() != wire+SPHeaderLen {
		t.Errorf("Len with a snapshot = %d, want %d", p.Len(), wire+SPHeaderLen)
	}
}

func TestSPRoundTripQuick(t *testing.T) {
	f := func(qid uint16, part uint8, s0, s1 uint32, g uint16) bool {
		h := SPHeader{QID: qid & 0xFFF, Part: part & 0x0F, State0: s0, State1: s1, Global: g}
		var b [SPHeaderLen]byte
		var got SPHeader
		h.marshal(b[:])
		got.unmarshal(b[:])
		return got == h
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUnmarshalSPShort(t *testing.T) {
	p := tcpPacket()
	p.AttachSP(SPHeader{QID: 1})
	if _, err := Decode(p.Serialize()[:14+5]); err == nil {
		t.Error("short SP should fail")
	}
}

func TestDecodeErrors(t *testing.T) {
	cases := map[string][]byte{
		"empty":          {},
		"short ethernet": make([]byte, 10),
		"bad ethertype":  append(make([]byte, 12), 0x86, 0xDD), // IPv6
	}
	for name, buf := range cases {
		if _, err := Decode(buf); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
	// Corrupt checksum.
	buf := tcpPacket().Serialize()
	buf[14+10] ^= 0xFF
	if _, err := Decode(buf); err == nil {
		t.Error("corrupted checksum not detected")
	}
}

func TestFlowKey(t *testing.T) {
	p := tcpPacket()
	k := p.Flow()
	if k.Proto != ProtoTCP || k.SPort != 50123 || k.DPort != 443 {
		t.Errorf("Flow() = %+v", k)
	}
	r := k.Reverse()
	if r.Src != k.Dst || r.SPort != k.DPort || r.Reverse() != k {
		t.Errorf("Reverse broken: %+v", r)
	}
	want := "192.168.1.10:50123 -> 10.0.0.1:443/tcp"
	if k.String() != want {
		t.Errorf("String() = %q, want %q", k.String(), want)
	}
}

func TestFieldsExtraction(t *testing.T) {
	p := tcpPacket()
	v := p.Fields()
	if v.Get(fields.SrcIP) != uint64(p.IP.Src) {
		t.Error("sip not extracted")
	}
	if v.Get(fields.DstPort) != 443 || v.Get(fields.TCPFlags) != FlagSYN {
		t.Error("tcp fields not extracted")
	}
	if v.Get(fields.PktLen) != uint64(p.Len()) {
		t.Errorf("len = %d, want %d", v.Get(fields.PktLen), p.Len())
	}
	udp := &Packet{IP: IPv4{Proto: ProtoUDP, TTL: 1}, UDP: &UDP{SrcPort: 53, DstPort: 999}}
	uv := udp.Fields()
	if uv.Get(fields.SrcPort) != 53 || uv.Get(fields.TCPFlags) != 0 {
		t.Error("udp fields wrong")
	}
}

func TestChecksumRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		b := make([]byte, 20)
		rng.Read(b)
		b[10], b[11] = 0, 0
		c := checksum(b)
		b[10], b[11] = byte(c>>8), byte(c)
		if checksum(b) != 0 {
			t.Fatalf("checksum does not verify: %x", b)
		}
	}
}

func TestIPv4AddrPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("IPv4Addr on garbage should panic")
		}
	}()
	IPv4Addr("not-an-ip")
}

func TestIPv4Addr(t *testing.T) {
	if IPv4Addr("10.0.0.1") != 0x0A000001 {
		t.Errorf("IPv4Addr = %#x", IPv4Addr("10.0.0.1"))
	}
}

func TestDecodeNeverPanics(t *testing.T) {
	// The parser must reject, never crash, on arbitrary wire bytes.
	rng := rand.New(rand.NewSource(99))
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("Decode panicked: %v", r)
		}
	}()
	for i := 0; i < 5000; i++ {
		n := rng.Intn(120)
		buf := make([]byte, n)
		rng.Read(buf)
		Decode(buf)
	}
	// And on truncations of a valid packet at every length.
	valid := tcpPacket().Serialize()
	for n := 0; n <= len(valid); n++ {
		Decode(valid[:n])
	}
	// And on single-byte corruptions of a valid packet.
	for i := range valid {
		mut := append([]byte(nil), valid...)
		mut[i] ^= 0xFF
		Decode(mut)
	}
}

func TestDecodeBitFlipsRoundTrip(t *testing.T) {
	// Any packet that decodes after a bit flip must re-serialize without
	// panicking (internal consistency of the accepted set).
	valid := tcpPacket().Serialize()
	for i := range valid {
		mut := append([]byte(nil), valid...)
		mut[i] ^= 0x01
		p, err := Decode(mut)
		if err != nil {
			continue
		}
		if got := p.Serialize(); len(got) == 0 {
			t.Fatalf("flip at %d: decoded packet serialized to nothing", i)
		}
	}
}
