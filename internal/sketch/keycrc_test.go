package sketch

import (
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"testing"

	"github.com/newton-net/newton/internal/fields"
)

// keyCRCWant is the definition KeyCRC must reproduce: the library
// checksum of the key as the K module serialises it.
func keyCRCWant(m *fields.Mask, v *fields.Vector) uint32 {
	return crc32.ChecksumIEEE(m.Bytes(v, nil))
}

// TestKeyCRCMatchesChecksumIEEE draws random masks — concealed, whole
// and partial-bit fields, from none kept to all twelve — over random
// values that also set bits outside each field's width.
func TestKeyCRCMatchesChecksumIEEE(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 20000; i++ {
		var m fields.Mask
		var v fields.Vector
		for id := range m {
			switch rng.Intn(4) {
			case 0:
				m[id] = fields.ID(id).MaxValue()
			case 1:
				m[id] = rng.Uint64() & fields.ID(id).MaxValue() // partial bits, sometimes none
			case 2:
				m[id] = rng.Uint64() // wider than the field: Bytes keeps all 64
			}
			v[id] = rng.Uint64() >> uint(rng.Intn(64))
		}
		if got, want := KeyCRC(&m, &v), keyCRCWant(&m, &v); got != want {
			t.Fatalf("mask %v values %v: KeyCRC = %#x, ChecksumIEEE(Bytes) = %#x", m, v, got, want)
		}
	}
	// Sum over the serialised key is SeedCRC over the word checksum.
	m := fields.Keep(fields.SrcIP, fields.DstPort)
	v := fields.Vector{fields.SrcIP: 0x0A000001, fields.DstPort: 443, fields.TTL: 64}
	if got, want := SeedCRC(KeyCRC(&m, &v), 7), CRC32IEEE.Sum(m.Bytes(&v, nil), 7); got != want {
		t.Fatalf("SeedCRC(KeyCRC) = %#x, Sum = %#x", got, want)
	}
}

// FuzzKeyCRC feeds raw bytes as (mask, value) words, twelve pairs at
// most; missing words are zero.
func FuzzKeyCRC(f *testing.F) {
	f.Add([]byte{})
	f.Add(binary.BigEndian.AppendUint64(binary.BigEndian.AppendUint64(nil, ^uint64(0)), 0x0A0000AA))
	f.Add(make([]byte, 16*int(fields.NumFields)))
	f.Fuzz(func(t *testing.T, data []byte) {
		var m fields.Mask
		var v fields.Vector
		for id := 0; id < int(fields.NumFields) && len(data) >= 16; id, data = id+1, data[16:] {
			m[id] = binary.BigEndian.Uint64(data)
			v[id] = binary.BigEndian.Uint64(data[8:])
		}
		if got, want := KeyCRC(&m, &v), keyCRCWant(&m, &v); got != want {
			t.Fatalf("mask %v values %v: KeyCRC = %#x, ChecksumIEEE(Bytes) = %#x", m, v, got, want)
		}
	})
}
