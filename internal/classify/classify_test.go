package classify

import (
	"math/rand"
	"testing"
)

// scanOracle is the reference: the linear ternary scan, returning the
// ascending indices of every matching rule.
func scanOracle(rules []Rule, vals []uint64) []int32 {
	var out []int32
	for i := range rules {
		match := true
		for c := range vals {
			if vals[c]&rules[i].Masks[c] != rules[i].Values[c]&rules[i].Masks[c] {
				match = false
				break
			}
		}
		if match {
			out = append(out, int32(i))
		}
	}
	return out
}

func assertEquivalent(t *testing.T, cols int, rules []Rule, c *Compiled, keys [][]uint64) {
	t.Helper()
	for _, k := range keys {
		got := c.Lookup(k)
		want := scanOracle(rules, k)
		if !equalList(got, want) {
			t.Fatalf("Lookup(%v) = %v, oracle says %v (cols=%d, %d rules)",
				k, got, want, cols, len(rules))
		}
	}
}

// ipPrefixRules builds n rules shaped like newton_init entries: distinct
// dst /24 prefixes, exact proto, wildcard everything else.
func ipPrefixRules(n int) []Rule {
	rules := make([]Rule, n)
	for i := range rules {
		rules[i] = Rule{
			Values: []uint64{0, 0x0A000000 | uint64(i)<<8, 6, 0, 0, 0},
			Masks:  []uint64{0, 0xFFFFFF00, 0xFF, 0, 0, 0},
		}
	}
	return rules
}

func TestCompilePrefixColumn(t *testing.T) {
	rules := ipPrefixRules(64)
	c := Compile(6, rules, Config{MinRules: 1})
	if c == nil {
		t.Fatal("prefix rule set did not compile")
	}
	var keys [][]uint64
	for i := 0; i < 64; i++ {
		keys = append(keys,
			[]uint64{9, 0x0A000000 | uint64(i)<<8 | 0x7F, 6, 1, 2, 0},  // hit
			[]uint64{9, 0x0A000000 | uint64(i)<<8 | 0x7F, 17, 1, 2, 0}, // wrong proto
			[]uint64{9, 0x0B000000 | uint64(i)<<8, 6, 1, 2, 0})         // miss prefix
	}
	keys = append(keys, []uint64{0, ^uint64(0), 6, 0, 0, 0}) // out-of-domain high bits
	assertEquivalent(t, 6, rules, c, keys)
	if st := c.Stats(); st.Dims != 2 || st.Leaves < 2 {
		t.Fatalf("unexpected stats %+v", st)
	}
}

func TestCompileNestedPrefixesOrdering(t *testing.T) {
	// Nested prefixes: /8, /16, /24, exact — a key inside all of them
	// must report every covering rule, in rule (match) order.
	mk := func(v, m uint64) Rule {
		return Rule{Values: []uint64{v}, Masks: []uint64{m}}
	}
	rules := []Rule{
		mk(0x0A0A0A0A, 0xFFFFFFFF),
		mk(0x0A0A0A00, 0xFFFFFF00),
		mk(0x0A0A0000, 0xFFFF0000),
		mk(0x0A000000, 0xFF000000),
		mk(0x0B000000, 0xFF000000),
		mk(0, 0), // default
	}
	c := Compile(1, rules, Config{MinRules: 1})
	if c == nil {
		t.Fatal("nested prefixes did not compile")
	}
	keys := [][]uint64{
		{0x0A0A0A0A}, {0x0A0A0A0B}, {0x0A0AFFFF}, {0x0AFF0000},
		{0x0B123456}, {0xCC000000}, {0}, {^uint64(0)},
	}
	assertEquivalent(t, 1, rules, c, keys)
	if got := c.Lookup([]uint64{0x0A0A0A0A}); len(got) != 5 {
		t.Fatalf("full nest should match 5 rules, got %v", got)
	}
}

func TestCompileDenseColumn(t *testing.T) {
	// Flag-style masks (non-prefix, small care): SYN bit, exact flags,
	// wildcard — the dense value-table strategy.
	rules := []Rule{
		{Values: []uint64{0x02}, Masks: []uint64{0x02}},
		{Values: []uint64{0x12}, Masks: []uint64{0xFF}},
		{Values: []uint64{0x01}, Masks: []uint64{0x03}},
		{Values: []uint64{0}, Masks: []uint64{0}},
	}
	c := Compile(1, rules, Config{MinRules: 1})
	if c == nil {
		t.Fatal("dense rule set did not compile")
	}
	if c.dims[0].kind != dimDense {
		t.Fatalf("expected dense dimension, got kind %d", c.dims[0].kind)
	}
	var keys [][]uint64
	for v := uint64(0); v < 256; v++ {
		keys = append(keys, []uint64{v})
	}
	keys = append(keys, []uint64{0x1202}, []uint64{^uint64(0)})
	assertEquivalent(t, 1, rules, c, keys)
}

// TestCompileFullMasksBesideNarrower covers a column that mixes full
// 64-bit masks (a rule installed without masks) with narrower ones:
// 32-bit prefixes in column 0, flag-style 8-bit masks in column 1. The
// full-mask rules are points over the narrower structure, and match on
// all 64 bits: a key equal to one in its low bits only must miss it,
// and one whose value lies outside the narrower domain must still hit.
func TestCompileFullMasksBesideNarrower(t *testing.T) {
	const full = ^uint64(0)
	rules := []Rule{
		{Values: []uint64{0x0A000005, 0x12}, Masks: []uint64{full, full}},
		{Values: []uint64{0x0A000000, 0x02}, Masks: []uint64{0xFFFFFF00, 0x02}},
		{Values: []uint64{0x0A000005, 0}, Masks: []uint64{0xFFFFFFFF, 0}},
		{Values: []uint64{1<<40 | 7, 1 << 20}, Masks: []uint64{full, full}},
		{Values: []uint64{0x0A000005, 0x12}, Masks: []uint64{full, 0xFF}},
		{Values: []uint64{0, 0x01}, Masks: []uint64{0, 0x03}},
	}
	c := Compile(2, rules, Config{MinRules: 1})
	if c == nil {
		t.Fatal("full masks beside narrower ones did not compile")
	}
	if c.dims[0].kind == c.dims[1].kind {
		t.Fatalf("expected one interval and one dense dimension, got kinds %d, %d",
			c.dims[0].kind, c.dims[1].kind)
	}
	var keys [][]uint64
	for _, a := range []uint64{0x0A000005, 0x0A000006, 1<<40 | 0x0A000005, 1<<40 | 7, 7, 0} {
		for _, b := range []uint64{0x12, 0x02, 0x01, 1<<20 | 0x12, 1 << 20, 0} {
			keys = append(keys, []uint64{a, b})
		}
	}
	assertEquivalent(t, 2, rules, c, keys)
	if got := c.Lookup([]uint64{0x0A000005, 0x12}); !equalList(got, []int32{0, 1, 2, 4}) {
		t.Fatalf("Lookup at the point = %v, want [0 1 2 4]", got)
	}
}

func TestCompileUncompilableMasksFallBack(t *testing.T) {
	// A wide non-prefix mask (care > 16 bits, holes) fits no strategy.
	rules := []Rule{
		{Values: []uint64{0x00F0000000}, Masks: []uint64{0x00F000000F}},
		{Values: []uint64{0x1}, Masks: []uint64{0xFF00000000}},
	}
	if c := Compile(1, rules, Config{MinRules: 1}); c != nil {
		t.Fatal("mixed wide non-prefix masks should not compile")
	}
}

func TestCompileBudgetAborts(t *testing.T) {
	rules := ipPrefixRules(256)
	if c := Compile(6, rules, Config{MinRules: 1, MaxCells: 16}); c != nil {
		t.Fatal("cell budget exceeded but compile succeeded")
	}
	if c := Compile(6, rules, Config{MinRules: 1, MaxWork: 16}); c != nil {
		t.Fatal("work budget exceeded but compile succeeded")
	}
	if c := Compile(6, rules, Config{MinRules: 1}); c == nil {
		t.Fatal("default budget should fit 256 prefix rules")
	}
}

func TestCompileMinRules(t *testing.T) {
	rules := ipPrefixRules(4)
	if c := Compile(6, rules, Config{}); c != nil {
		t.Fatal("4 rules under default MinRules=8 should not compile")
	}
	if c := Compile(6, rules, Config{MinRules: 1}); c == nil {
		t.Fatal("MinRules=1 should compile 4 rules")
	}
}

func TestCompileAllWildcard(t *testing.T) {
	rules := []Rule{
		{Values: []uint64{0, 0}, Masks: []uint64{0, 0}},
		{Values: []uint64{5, 5}, Masks: []uint64{0, 0}},
	}
	c := Compile(2, rules, Config{MinRules: 1})
	if c == nil {
		t.Fatal("all-wildcard set should compile trivially")
	}
	got := c.Lookup([]uint64{123, 456})
	if !equalList(got, []int32{0, 1}) {
		t.Fatalf("all-wildcard lookup = %v, want [0 1]", got)
	}
}

func TestCompileArityMismatch(t *testing.T) {
	rules := []Rule{{Values: []uint64{1}, Masks: []uint64{1, 2}}}
	if c := Compile(1, rules, Config{MinRules: 1}); c != nil {
		t.Fatal("arity mismatch should not compile")
	}
}

// randomRules draws a rule set exercising every strategy: prefix masks
// (shifted runs ending at the column's care top), full-width exact,
// small dense masks, and wildcards.
func randomRules(rng *rand.Rand, cols, n int) []Rule {
	// Per-column style: 0 = prefix/exact over 32-bit values,
	// 1 = dense small masks, 2 = wildcard-heavy mix.
	styles := make([]int, cols)
	for c := range styles {
		styles[c] = rng.Intn(3)
	}
	rules := make([]Rule, n)
	for i := range rules {
		vals := make([]uint64, cols)
		masks := make([]uint64, cols)
		for c := 0; c < cols; c++ {
			switch styles[c] {
			case 0:
				switch rng.Intn(4) {
				case 0:
					masks[c] = 0xFFFFFFFF
				case 1:
					masks[c] = 0xFFFFFF00
				case 2:
					masks[c] = 0xFFFF0000
				default:
					masks[c] = 0
				}
				vals[c] = uint64(rng.Uint32())
			case 1:
				masks[c] = uint64(rng.Intn(256))
				vals[c] = uint64(rng.Intn(256))
			default:
				if rng.Intn(2) == 0 {
					masks[c] = 0xFFFF
					vals[c] = uint64(rng.Intn(1 << 16))
				}
			}
		}
		rules[i] = Rule{Values: vals, Masks: masks}
	}
	return rules
}

// TestCompiledEquivalenceRandom is the CI-sized deterministic variant
// of the fuzz harness: seeded random rule sets, full LookupAll ordering
// compared against the scan oracle, including keys biased toward rule
// values so hits are common.
func TestCompiledEquivalenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 150; trial++ {
		cols := 1 + rng.Intn(3)
		n := 1 + rng.Intn(48)
		rules := randomRules(rng, cols, n)
		c := Compile(cols, rules, Config{MinRules: 1})
		if c == nil {
			// Strategy fallback: the scan oracle serves these — nothing
			// to verify, but make sure it stays rare for this generator.
			continue
		}
		keys := make([][]uint64, 0, 64)
		for k := 0; k < 48; k++ {
			vals := make([]uint64, cols)
			for ci := range vals {
				if rng.Intn(2) == 0 && n > 0 {
					r := rules[rng.Intn(n)]
					vals[ci] = r.Values[ci] ^ uint64(rng.Intn(4)) // near-hit
				} else {
					vals[ci] = uint64(rng.Uint32())
				}
			}
			keys = append(keys, vals)
		}
		assertEquivalent(t, cols, rules, c, keys)
	}
}

// TestLookupMatchOrder asserts the leaf lists are ascending — the match
// order contract the dataplane merge relies on.
func TestLookupMatchOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	rules := randomRules(rng, 2, 40)
	c := Compile(2, rules, Config{MinRules: 1})
	if c == nil {
		t.Skip("generator produced an uncompilable set for this seed")
	}
	for k := 0; k < 200; k++ {
		vals := []uint64{uint64(rng.Uint32()), uint64(rng.Uint32())}
		got := c.Lookup(vals)
		for i := 1; i < len(got); i++ {
			if got[i-1] >= got[i] {
				t.Fatalf("leaf not ascending: %v", got)
			}
		}
	}
}
