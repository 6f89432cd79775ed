package dataplane

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"github.com/newton-net/newton/internal/classify"
)

// Matches reports whether the rule matches the given column values —
// the ternary discipline the compiled classifier must reproduce.
func (r *Rule) Matches(vals []uint64) bool {
	for i := range r.Values {
		if vals[i]&r.Masks[i] != r.Values[i]&r.Masks[i] {
			return false
		}
	}
	return true
}

// scanAppend is the reference the table is held to: the linear ternary
// scan over rules in match order, appending every match to dst.
func scanAppend(dst, rules []*Rule, vals []uint64) []*Rule {
	for _, r := range rules {
		if r.Matches(vals) {
			dst = append(dst, r)
		}
	}
	return dst
}

// fillTernaryMix writes a pseudo-random mix of exact, LPM-style and
// masked rules into tb — the cross-product of what newton_init and
// R-tables hold — in batches of random size, so the table compiles
// many rule sets on the same storage on the way.
func fillTernaryMix(t *testing.T, rng *rand.Rand, n int, tb *Table) {
	t.Helper()
	var batch []*Rule
	for i := 0; i < n; i++ {
		var vals, masks [2]uint64
		switch rng.Intn(4) {
		case 0: // exact: full masks, points beside the narrower ones
			vals = [2]uint64{uint64(rng.Intn(64)), uint64(rng.Intn(64))}
			masks = [2]uint64{^uint64(0), ^uint64(0)}
		case 1: // prefix on col 0 (mixed lengths within one 32-bit domain)
			vals[0] = uint64(rng.Uint32())
			masks[0] = [...]uint64{0xFFFFFFFF, 0xFFFFFF00, 0xFFFF0000}[rng.Intn(3)]
			masks[1] = 0
		case 2: // dense-style small mask on col 1
			masks[1] = uint64(rng.Intn(256))
			vals[1] = uint64(rng.Intn(256))
		default: // wildcard
		}
		batch = append(batch, &Rule{Priority: rng.Intn(8), Values: vals[:], Masks: masks[:], Action: namedAction("m")})
		if i == n-1 || rng.Intn(8) == 0 {
			if err := tb.Write(nil, batch); err != nil {
				t.Fatalf("Write: %v", err)
			}
			batch = batch[:0]
		}
	}
}

// TestTableClassifierEquivalence drives random rule sets through a table
// and compares the full LookupAll order plus the best-match Lookup with
// the reference scan over the table's own rules, for a large key space
// — the dataplane-level equivalence contract.
func TestTableClassifierEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		tb := NewTable("fast", MatchTernary, 2, 4096)
		fillTernaryMix(t, rng, 10+rng.Intn(120), tb)

		var got, want []*Rule
		for k := 0; k < 200; k++ {
			vals := []uint64{uint64(rng.Uint32()), uint64(rng.Intn(512))}
			if k%3 == 0 { // bias into the exact-rule value range
				vals[0], vals[1] = uint64(rng.Intn(64)), uint64(rng.Intn(64))
			}
			got = tb.LookupAllAppend(got[:0], vals)
			want = scanAppend(want[:0], tb.Rules(), vals)
			if !slices.Equal(got, want) {
				t.Fatalf("trial %d key %v: classifier %v, scan %v", trial, vals, got, want)
			}
			best := tb.Lookup(vals[0], vals[1])
			if (best == nil) != (len(want) == 0) || best != nil && best != want[0] {
				t.Fatalf("trial %d key %v: best %v, scan %v", trial, vals, best, want)
			}
		}
	}
}

// TestTableClassifierSurvivesMutation asserts rule add/remove replaces
// the compiled structure: each new snapshot is compiled anew and stays
// equivalent.
func TestTableClassifierSurvivesMutation(t *testing.T) {
	tb := NewTable("mut", MatchTernary, 1, 1024)
	var ids []int
	for i := 0; i < 64; i++ {
		id, err := tb.AddRule([]uint64{uint64(i) << 8}, []uint64{0xFFFFFF00}, i%4, namedAction("p"))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	probe := func(want bool, v uint64) {
		t.Helper()
		got := tb.Lookup(v) != nil
		if got != want {
			t.Fatalf("Lookup(%#x) matched=%v, want %v", v, got, want)
		}
	}
	probe(true, 5<<8|3)
	if err := tb.RemoveRule(ids[5]); err != nil {
		t.Fatal(err)
	}
	probe(false, 5<<8|3) // removed rule no longer matches
	probe(true, 6<<8|3)
	if _, err := tb.AddRule([]uint64{5 << 8}, []uint64{0xFFFFFF00}, 0, namedAction("back")); err != nil {
		t.Fatal(err)
	}
	probe(true, 5<<8|3)
}

// TestTableWriteBatch: one Write removes and adds in one snapshot — one
// Version step — and places each added rule after every rule of its
// priority, in the batch's order, with IDs in the batch's order.
func TestTableWriteBatch(t *testing.T) {
	tb := NewTable("batch", MatchTernary, 1, 16)
	a, _ := tb.AddRule([]uint64{1}, []uint64{0xFF}, 5, namedAction("a"))
	b, _ := tb.AddRule([]uint64{1}, []uint64{0xFF}, 1, namedAction("b"))
	v := tb.Version()
	add := []*Rule{
		{Priority: 1, Values: []uint64{1}, Masks: []uint64{0xFF}, Action: namedAction("c")},
		{Priority: 9, Values: []uint64{0}, Masks: []uint64{0}, Action: namedAction("d")},
		{Priority: 5, Values: []uint64{1}, Masks: []uint64{0x0F}, Action: namedAction("e")},
	}
	if err := tb.Write([]int{b}, add); err != nil {
		t.Fatal(err)
	}
	if tb.Version() != v+1 {
		t.Fatalf("one Write moved Version %d -> %d", v, tb.Version())
	}
	var names []string
	for _, r := range tb.LookupAll(1) {
		names = append(names, r.Action.ActionName())
	}
	if want := []string{"d", "a", "e", "c"}; !slices.Equal(names, want) {
		t.Fatalf("match order %v, want %v", names, want)
	}
	if add[0].ID <= a || add[1].ID != add[0].ID+1 || add[2].ID != add[1].ID+1 {
		t.Fatalf("IDs %d %d %d after %d", add[0].ID, add[1].ID, add[2].ID, a)
	}
}

// TestTableRefusedWriteChangesNothing: a rule set that does not compile
// is refused with the classifier's typed reason, and so are unknown or
// repeated removals and an overfull batch; none of them moves the rules
// or the Version.
func TestTableRefusedWriteChangesNothing(t *testing.T) {
	tb := NewTable("refuse", MatchTernary, 2, 4)
	if _, err := tb.AddRule([]uint64{0x0A000000, 6}, []uint64{0xFFFFFF00, 0xFF}, 0, namedAction("ok")); err != nil {
		t.Fatal(err)
	}
	rules, v := tb.Rules(), tb.Version()
	unchanged := func(what string, err, want error) {
		t.Helper()
		if err == nil || want != nil && !errors.Is(err, want) {
			t.Fatalf("%s: err = %v, want %v", what, err, want)
		}
		if !slices.Equal(tb.Rules(), rules) || tb.Version() != v {
			t.Fatalf("%s: rules %v version %d, want %v version %d", what, tb.Rules(), tb.Version(), rules, v)
		}
	}
	// Neither a prefix nor within 16 bits of care.
	_, err := tb.AddRule([]uint64{0x00AA00BB, 0}, []uint64{0x00FF00FF, 0}, 0, namedAction("holes"))
	unchanged("AddRule with mask 0x00FF00FF", err, classify.ErrMaskShape)
	wide := &Rule{Values: []uint64{0, 1}, Masks: []uint64{0, 0xF000000F}}
	unchanged("batch with a wide hole mask", tb.Write(nil, []*Rule{wide}), classify.ErrMaskShape)
	if wide.ID != 0 {
		t.Fatalf("a refused rule got ID %d", wide.ID)
	}
	unchanged("RemoveRule(unknown)", tb.RemoveRule(99), nil)
	unchanged("repeated removal", tb.Write([]int{rules[0].ID, rules[0].ID}, nil), nil)
	var many []*Rule
	for i := range 4 {
		many = append(many, &Rule{Values: []uint64{uint64(i), 0}, Masks: []uint64{^uint64(0), 0}})
	}
	unchanged("overfull batch", tb.Write(nil, many), nil)
}

// TestTableClassifierZeroAlloc pins the classified packet path at zero
// allocations per lookup, for both Lookup and the append form.
func TestTableClassifierZeroAlloc(t *testing.T) {
	tb := NewTable("alloc", MatchTernary, 2, 8192)
	var add []*Rule
	for i := 0; i < 4096; i++ {
		add = append(add, &Rule{Values: []uint64{uint64(i) << 8, 6}, Masks: []uint64{0xFFFFFF00, 0xFF}, Action: namedAction("p")})
	}
	if err := tb.Write(nil, add); err != nil {
		t.Fatalf("4096-rule table should compile: %v", err)
	}
	vals := []uint64{uint64(1234) << 8, 6}
	buf := make([]*Rule, 0, 8)
	if a := testing.AllocsPerRun(200, func() {
		buf = tb.LookupAllAppend(buf[:0], vals)
	}); a != 0 {
		t.Fatalf("LookupAllAppend allocates %v per op", a)
	}
	if a := testing.AllocsPerRun(200, func() {
		tb.Lookup(vals[0], vals[1])
	}); a != 0 {
		t.Fatalf("Lookup allocates %v per op", a)
	}
}
