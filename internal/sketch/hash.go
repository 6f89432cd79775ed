// Package sketch implements the probabilistic data structures Newton's
// state bank realizes on registers — Count-Min sketches for reduce(sum)
// and Bloom filters for distinct — plus the configurable hash family the
// hash-calculation module (H) exposes. The package is also used directly
// by the software analyzer and by the Scream baseline.
package sketch

import (
	"fmt"
	"hash/crc32"
	"math/bits"

	"github.com/newton-net/newton/internal/fields"
)

// Algo selects one of the hash algorithms a Tofino-style hash engine
// offers. The exact polynomials matter less than having several
// independent functions available per stage.
type Algo uint8

const (
	// CRC32IEEE is the standard Ethernet CRC-32 polynomial.
	CRC32IEEE Algo = iota
	// CRC32Castagnoli is the iSCSI CRC-32C polynomial.
	CRC32Castagnoli
	// CRC32Koopman is the Koopman CRC-32K polynomial.
	CRC32Koopman
	// FNV1a is 32-bit FNV-1a.
	FNV1a
	// Identity passes the low 32 bits of the input through ("direct
	// mode" in the paper: the hash result is a key verbatim).
	Identity
	numAlgos
)

var algoNames = [numAlgos]string{"crc32", "crc32c", "crc32k", "fnv1a", "identity"}

// String returns the short algorithm name.
func (a Algo) String() string {
	if a < numAlgos {
		return algoNames[a]
	}
	return fmt.Sprintf("algo(%d)", uint8(a))
}

var (
	castagnoliTable = crc32.MakeTable(crc32.Castagnoli)
	koopmanTable    = crc32.MakeTable(crc32.Koopman)
)

// Sum computes the 32-bit hash of data under algorithm a with the given
// seed. Seeding lets one algorithm provide the independent functions a
// multi-row sketch needs. CRC is linear — prefix-seeding it would only
// XOR a per-seed constant into the result, leaving rows perfectly
// correlated — so the seed is folded in through a nonlinear finalizer
// (Murmur3's), which is exactly how hardware hash engines derive
// multiple "units" from one polynomial.
func (a Algo) Sum(data []byte, seed uint32) uint32 {
	switch a {
	case CRC32IEEE:
		return SeedCRC(crc32.ChecksumIEEE(data), seed)
	case CRC32Castagnoli:
		return SeedCRC(crc32.Checksum(data, castagnoliTable), seed)
	case CRC32Koopman:
		return SeedCRC(crc32.Checksum(data, koopmanTable), seed)
	case FNV1a:
		// Inline FNV-1a over seed||data: identical to hash/fnv on the
		// same bytes, but without the heap-allocated hash.Hash32 that
		// made every per-packet hash an allocation.
		const (
			offset32 = 2166136261
			prime32  = 16777619
		)
		h := uint32(offset32)
		h = (h ^ uint32(seed>>24)) * prime32
		h = (h ^ uint32(seed>>16)&0xFF) * prime32
		h = (h ^ uint32(seed>>8)&0xFF) * prime32
		h = (h ^ seed&0xFF) * prime32
		for _, b := range data {
			h = (h ^ uint32(b)) * prime32
		}
		return h
	case Identity:
		var v uint32
		for _, b := range data {
			v = v<<8 | uint32(b)
		}
		return v
	}
	panic(fmt.Sprintf("sketch: unknown hash algo %d", a))
}

// SeedCRC derives one seeded hash from a key's checksum: the whole of
// Sum for the CRC algorithms once the checksum is known. The seed never
// enters the CRC, so every H module hashing the same key under the same
// polynomial shares one checksum and pays only this finalizer.
func SeedCRC(crc, seed uint32) uint32 { return fmix32(crc ^ seed) }

// ieee8 is the slicing-by-8 form of the IEEE polynomial's table:
// ieee8[j][b] is the checksum of byte b followed by j zero bytes.
var ieee8 = func() *[8][256]uint32 {
	t := new([8][256]uint32)
	t[0] = *crc32.IEEETable
	for i := range t[0] {
		crc := t[0][i]
		for j := 1; j < 8; j++ {
			crc = t[0][crc&0xFF] ^ crc>>8
			t[j][i] = crc
		}
	}
	return t
}()

// KeyCRC is crc32.ChecksumIEEE(m.Bytes(v, nil)) without the bytes: each
// field the mask keeps is eight big-endian bytes of v[id]&m[id], which
// is one slicing-by-8 step over the word itself.
func KeyCRC(m *fields.Mask, v *fields.Vector) uint32 {
	crc := ^uint32(0)
	for id, keep := range m {
		if keep == 0 {
			continue
		}
		x := v[id] & keep
		crc ^= bits.ReverseBytes32(uint32(x >> 32))
		crc = ieee8[0][byte(x)] ^ ieee8[1][byte(x>>8)] ^ ieee8[2][byte(x>>16)] ^ ieee8[3][byte(x>>24)] ^
			ieee8[4][crc>>24] ^ ieee8[5][byte(crc>>16)] ^ ieee8[6][byte(crc>>8)] ^ ieee8[7][byte(crc)]
	}
	return ^crc
}

// fmix32 is Murmur3's 32-bit finalizer: a cheap bijective scrambler that
// decorrelates seed variants of a linear checksum.
func fmix32(h uint32) uint32 {
	h ^= h >> 16
	h *= 0x85EBCA6B
	h ^= h >> 13
	h *= 0xC2B2AE35
	h ^= h >> 16
	return h
}

// Fold reduces a 32-bit hash into [0, rangeSize). rangeSize must be
// positive. For power-of-two ranges this is a mask, matching how the H
// module's "range of the hash result" is configured in hardware.
func Fold(h uint32, rangeSize uint32) uint32 {
	if rangeSize == 0 {
		panic("sketch: zero hash range")
	}
	if rangeSize&(rangeSize-1) == 0 {
		return h & (rangeSize - 1)
	}
	return h % rangeSize
}
