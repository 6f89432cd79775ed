// Package fields defines the global header-field set that Newton modules
// operate on, together with the per-packet metadata sets used by the
// compact module layout.
//
// Newton's key-selection module (K) takes "a list of global fields as
// input" and conceals unneeded fields with a bit-mask action (§4.1 of the
// paper). We model the global field set as a fixed vector of 64-bit
// values indexed by ID, and a Mask as a parallel vector of per-field bit
// masks. Masking with an all-ones entry keeps the field, an all-zeros
// entry conceals it, and intermediate masks express derived keys such as
// IP prefixes or discretized lengths — exactly the flexible bit-mask
// logic the paper describes.
package fields

import (
	"fmt"
	"strings"
)

// ID identifies one field in the global header-field set.
type ID uint8

// The global header-field set. It mirrors the fields Sonata/Newton
// queries touch: the 5-tuple, TCP control flags, packet length, TTL and
// TCP sequence numbers, plus ingress metadata (timestamp, port).
const (
	Timestamp ID = iota // ingress timestamp, nanoseconds of virtual time
	InPort              // ingress port index
	SrcIP               // IPv4 source address
	DstIP               // IPv4 destination address
	Proto               // IP protocol number
	SrcPort             // L4 source port (0 for non-TCP/UDP)
	DstPort             // L4 destination port (0 for non-TCP/UDP)
	TCPFlags            // TCP control flags (0 for non-TCP)
	PktLen              // total packet length in bytes
	TTL                 // IP time-to-live
	TCPSeq              // TCP sequence number
	TCPAck              // TCP acknowledgement number
	NumFields           // number of fields in the global set
)

var idNames = [NumFields]string{
	"ts", "in_port", "sip", "dip", "proto",
	"sport", "dport", "tcp_flags", "len", "ttl", "tcp_seq", "tcp_ack",
}

// String returns the short field name used in query source and rule dumps.
func (id ID) String() string {
	if id < NumFields {
		return idNames[id]
	}
	return fmt.Sprintf("field(%d)", uint8(id))
}

// ParseID resolves a short field name back to its ID.
func ParseID(name string) (ID, error) {
	for i, n := range idNames {
		if n == name {
			return ID(i), nil
		}
	}
	return 0, fmt.Errorf("fields: unknown field %q", name)
}

// Width returns the natural bit width of the field on the wire. The
// simulator stores every field in 64 bits, but resource accounting (PHV
// and crossbar usage) and mask validation use the natural width.
func (id ID) Width() int {
	switch id {
	case Timestamp:
		return 48
	case InPort:
		return 9
	case SrcIP, DstIP, TCPSeq, TCPAck:
		return 32
	case Proto, TTL:
		return 8
	case SrcPort, DstPort, PktLen:
		return 16
	case TCPFlags:
		return 8
	}
	return 0
}

// MaxValue returns the largest value representable in the field's
// natural width.
func (id ID) MaxValue() uint64 {
	w := id.Width()
	if w >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << uint(w)) - 1
}

// Vector holds one value per global field. It is the "global header
// fields set" a packet presents to the Newton modules.
type Vector [NumFields]uint64

// Get returns the value of field id.
func (v *Vector) Get(id ID) uint64 { return v[id] }

// Set assigns the value of field id.
func (v *Vector) Set(id ID, val uint64) { v[id] = val }

// String renders only the non-zero fields, for logs and golden tests.
func (v *Vector) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	for id := ID(0); id < NumFields; id++ {
		if v[id] == 0 {
			continue
		}
		if !first {
			b.WriteString(", ")
		}
		first = false
		fmt.Fprintf(&b, "%s=%d", id, v[id])
	}
	b.WriteByte('}')
	return b.String()
}

// Mask is a per-field bit mask applied by the key-selection module. A
// zero entry conceals the field entirely; ^uint64(0) (clamped to the
// field width) keeps it; anything in between derives a sub-key (e.g. a
// /24 prefix of an address).
type Mask [NumFields]uint64

// KeepAll returns a mask that keeps every field at its natural width.
func KeepAll() Mask {
	var m Mask
	for id := ID(0); id < NumFields; id++ {
		m[id] = id.MaxValue()
	}
	return m
}

// Keep returns a mask that keeps exactly the given fields at full width.
func Keep(ids ...ID) Mask {
	var m Mask
	for _, id := range ids {
		m[id] = id.MaxValue()
	}
	return m
}

// WithBits returns a copy of the mask with field id masked to the given
// bit pattern, for derived keys such as prefixes.
func (m Mask) WithBits(id ID, bits uint64) Mask {
	m[id] = bits & id.MaxValue()
	return m
}

// Prefix returns a mask bit pattern selecting the top plen bits of a
// field (e.g. Prefix(SrcIP, 24) for a /24).
func Prefix(id ID, plen int) uint64 {
	w := id.Width()
	if plen >= w {
		return id.MaxValue()
	}
	if plen <= 0 {
		return 0
	}
	return (id.MaxValue() >> uint(w-plen)) << uint(w-plen)
}

// Apply masks the vector, concealing or deriving fields, and returns the
// resulting operation keys.
func (m Mask) Apply(v *Vector) Vector {
	var out Vector
	(&m).ApplyInto(v, &out)
	return out
}

// ApplyInto masks v into out in place — the per-packet form of Apply,
// avoiding two vector copies through the stack.
func (m *Mask) ApplyInto(v, out *Vector) {
	for id := ID(0); id < NumFields; id++ {
		out[id] = v[id] & m[id]
	}
}

// Fields lists the IDs the mask keeps (any non-zero entry). The list is
// made at its largest size, so a caller the function is inlined into
// keeps it on its stack.
func (m Mask) Fields() []ID {
	ids := make([]ID, 0, NumFields)
	for id := ID(0); id < NumFields; id++ {
		if m[id] != 0 {
			ids = append(ids, id)
		}
	}
	return ids
}

// IsZero reports whether the mask conceals every field.
func (m Mask) IsZero() bool { return m == Mask{} }

// Equal reports whether two masks select identical keys.
func (m Mask) Equal(o Mask) bool { return m == o }

// String renders the kept fields, e.g. "(dip, sip)" or "(sip/24)".
func (m Mask) String() string {
	var parts []string
	for id := ID(0); id < NumFields; id++ {
		switch m[id] {
		case 0:
		case id.MaxValue():
			parts = append(parts, id.String())
		default:
			parts = append(parts, fmt.Sprintf("%s&%#x", id, m[id]))
		}
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// Bytes serializes the masked fields in ID order into a compact byte
// string suitable for hashing. Only fields the mask keeps contribute, so
// two packets with equal operation keys hash identically regardless of
// concealed fields.
func (m Mask) Bytes(v *Vector, dst []byte) []byte {
	for id := ID(0); id < NumFields; id++ {
		if m[id] == 0 {
			continue
		}
		x := v[id] & m[id]
		dst = append(dst,
			byte(x>>56), byte(x>>48), byte(x>>40), byte(x>>32),
			byte(x>>24), byte(x>>16), byte(x>>8), byte(x))
	}
	return dst
}

// MetadataSet is one of the two independent metadata sets of the compact
// module layout (§4.2): operation keys written by K, a hash result
// written by H, and a state result written by S.
type MetadataSet struct {
	OpKeys      Vector
	OpKeyMask   Mask // which fields the keys cover (for reporting)
	HashResult  uint64
	StateResult uint64
}

// GlobalSigned interprets a PHV global result as the signed value the
// result-process merge arithmetic works in.
func GlobalSigned(g uint64) int64 { return int64(g) }

// PHV is the per-packet header vector the pipeline threads through the
// stages: the parsed global fields, the two metadata sets of the compact
// layout, the shared global result that R modules merge into, and the
// query-chain bookkeeping written by newton_init.
type PHV struct {
	Fields Vector

	Sets         [2]MetadataSet
	GlobalResult uint64

	// QueryID is the chain selected by newton_init; Step is the index of
	// the next primitive to execute within that chain. Stopped is set by
	// an R module that terminates the query for this packet.
	QueryID int
	Step    int
	Stopped bool

	// KeyBuf is engine scratch for serializing operation keys into hash
	// input. It lives on the PHV so the serialization buffer shares the
	// execution context's heap allocation instead of escaping per packet
	// (the CRC fast paths are assembly, which defeats stack allocation
	// of the caller's buffer).
	KeyBuf [8 * int(NumFields)]byte
}

// Reset clears everything except the parsed fields.
func (p *PHV) Reset() {
	f := p.Fields
	*p = PHV{Fields: f, QueryID: -1}
}
