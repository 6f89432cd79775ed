package classify

import (
	"encoding/binary"
	"errors"
	"slices"
	"testing"
)

// rulesFromBytes decodes a rule set and probe keys from fuzz input and
// returns the bytes it left. The decoder is biased toward compilable
// shapes (prefix masks, small dense masks, wildcards, full-width exact)
// with an occasional raw mask so the refusal is fuzzed too.
func rulesFromBytes(data []byte) (cols int, rules []Rule, keys [][]uint64, rest []byte) {
	if len(data) < 4 {
		return 0, nil, nil, nil
	}
	next := func() uint64 {
		if len(data) == 0 {
			return 0
		}
		var buf [8]byte
		n := copy(buf[:], data)
		data = data[n:]
		return binary.LittleEndian.Uint64(buf[:])
	}
	cols = 1 + int(data[0]%3)
	nRules := 1 + int(data[1]%32)
	nKeys := 1 + int(data[2]%16)
	data = data[3:]

	maskFor := func(sel uint64) uint64 {
		switch sel % 8 {
		case 0:
			return 0
		case 1:
			return 0xFFFFFFFF
		case 2:
			return 0xFFFFFF00
		case 3:
			return 0xFFFF0000
		case 4:
			return 0xFF
		case 5:
			return sel >> 3 & 0xFFFF // arbitrary small mask: dense
		case 6:
			return ^uint64(0)
		default:
			return sel >> 3 // arbitrary wide mask: usually uncompilable
		}
	}
	for i := 0; i < nRules; i++ {
		vals := make([]uint64, cols)
		masks := make([]uint64, cols)
		for c := 0; c < cols; c++ {
			w := next()
			masks[c] = maskFor(w)
			vals[c] = next()
		}
		rules = append(rules, Rule{Values: vals, Masks: masks})
	}
	for i := 0; i < nKeys; i++ {
		vals := make([]uint64, cols)
		for c := 0; c < cols; c++ {
			vals[c] = next()
		}
		// Bias half the keys toward installed rule values so matches
		// (and nested matches) are common.
		if i%2 == 0 && len(rules) > 0 {
			r := rules[i%len(rules)]
			for c := 0; c < cols; c++ {
				vals[c] = r.Values[c] ^ (vals[c] & 0xFF)
			}
		}
		keys = append(keys, vals)
	}
	return cols, rules, keys, data
}

// FuzzCompiledEquivalence fuzzes the compiled classifier against the
// linear ternary scan: for every decoded rule set and key, the full match
// set — contents and order — must be identical. Two rule sets compile
// back to back on one Compiler, so storage the first compile leaves
// behind must not leak into the second. A refusal is legal, but only
// for one of the typed reasons.
func FuzzCompiledEquivalence(f *testing.F) {
	// Seeded corpus: prefix nest, dense flags, wildcard default, mixed.
	f.Add([]byte{2, 8, 8, 1, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100})
	f.Add([]byte{1, 16, 4, 2, 2, 2, 2, 4, 4, 4, 4, 0, 0, 0, 0, 9, 9})
	f.Add([]byte{3, 32, 16, 255, 254, 253, 252, 251, 250, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{2, 1, 1, 0, 0, 0, 0})
	f.Add([]byte{1, 31, 15, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6})
	f.Fuzz(func(t *testing.T, data []byte) {
		var k Compiler
		cols, rules, keys, rest := rulesFromBytes(data)
		if cols == 0 {
			return
		}
		check(t, &k, cols, rules, keys)
		if len(rest) < 4 {
			rest = data[1:] // shifted: another column count and rule count
		}
		if cols, rules, keys, _ = rulesFromBytes(rest); cols != 0 {
			check(t, &k, cols, rules, keys)
		}
	})
}

// check compiles rules on k and compares every key against the scan.
func check(t *testing.T, k *Compiler, cols int, rules []Rule, keys [][]uint64) {
	t.Helper()
	c, err := k.Compile(cols, rules, Config{})
	if err != nil {
		if !errors.Is(err, ErrMaskShape) && !errors.Is(err, ErrBudget) {
			t.Fatalf("refusal %q carries neither ErrMaskShape nor ErrBudget", err)
		}
		return
	}
	for _, key := range keys {
		got := c.Lookup(key)
		want := scanOracle(rules, key)
		if !slices.Equal(got, want) {
			t.Fatalf("compiled %v != scan %v for key %v over %d rules",
				got, want, key, len(rules))
		}
	}
}
