package sketch

import (
	"encoding/binary"
	"testing"
	"testing/quick"
)

func key(i uint64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], i)
	return b[:]
}

func TestAlgoDeterministic(t *testing.T) {
	data := []byte("hello newton")
	for a := Algo(0); a < numAlgos; a++ {
		if a.Sum(data, 1) != a.Sum(data, 1) {
			t.Errorf("%v not deterministic", a)
		}
	}
}

func TestAlgoSeedIndependence(t *testing.T) {
	data := []byte("some key bytes")
	for a := Algo(0); a < numAlgos-1; a++ { // Identity ignores seeds by design? No: prefix changes it.
		if a == Identity {
			continue
		}
		if a.Sum(data, 1) == a.Sum(data, 2) {
			t.Errorf("%v: seeds 1 and 2 collide", a)
		}
	}
}

func TestAlgosDiffer(t *testing.T) {
	data := []byte("differentiate me")
	seen := map[uint32]Algo{}
	for a := Algo(0); a < Identity; a++ {
		h := a.Sum(data, 0)
		if prev, ok := seen[h]; ok {
			t.Errorf("%v and %v collide on %x", a, prev, h)
		}
		seen[h] = a
	}
}

func TestIdentityMode(t *testing.T) {
	// Direct mode: low 32 bits of the key pass through.
	b := []byte{0, 0, 0, 0, 0, 0, 0, 53}
	if got := Identity.Sum(b, 99); got != 53 {
		t.Errorf("Identity.Sum = %d, want 53", got)
	}
}

func TestAlgoString(t *testing.T) {
	if CRC32IEEE.String() != "crc32" || Identity.String() != "identity" {
		t.Error("algo names wrong")
	}
	if Algo(99).String() != "algo(99)" {
		t.Error("out-of-range algo name wrong")
	}
}

func TestFold(t *testing.T) {
	if Fold(0xFFFF, 256) != 0xFF {
		t.Error("power-of-two fold should mask")
	}
	if Fold(100, 7) != 100%7 {
		t.Error("non-power-of-two fold should mod")
	}
	f := func(h, r uint32) bool {
		if r == 0 {
			r = 1
		}
		return Fold(h, r) < r
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFoldZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Fold(.,0) should panic")
		}
	}()
	Fold(1, 0)
}

func TestNextPow2(t *testing.T) {
	cases := map[uint32]uint32{0: 1, 1: 1, 2: 2, 3: 4, 1000: 1024, 1024: 1024}
	for in, want := range cases {
		if got := nextPow2(in); got != want {
			t.Errorf("nextPow2(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestSeedVariantsAreDecorrelated(t *testing.T) {
	// Regression test for a real bug: CRC32 is linear, so prefix-seeded
	// variants differed only by a constant XOR and multi-row sketches
	// had perfectly correlated collisions. With the finalizer, two keys
	// colliding under one seed must usually NOT collide under another.
	const (
		n     = 5000
		rng32 = 1 << 12
	)
	var both, first int
	for i := 0; i < n; i++ {
		a, b := key(uint64(i)), key(uint64(i+1_000_000))
		h0a := Fold(CRC32IEEE.Sum(a, 1), rng32)
		h0b := Fold(CRC32IEEE.Sum(b, 1), rng32)
		if h0a != h0b {
			continue
		}
		first++
		h1a := Fold(CRC32IEEE.Sum(a, 2), rng32)
		h1b := Fold(CRC32IEEE.Sum(b, 2), rng32)
		if h1a == h1b {
			both++
		}
	}
	// With independent rows, P(second collision | first) ~ 1/4096; with
	// the linear-CRC bug it was 1.
	if first > 0 && both > first/10 {
		t.Errorf("%d/%d first-row collisions repeat in the second row; rows correlated", both, first)
	}
}
