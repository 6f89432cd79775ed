package dataplane

import (
	"math/rand"
	"testing"

	"github.com/newton-net/newton/internal/classify"
)

// scanOnly pins a table to the linear-scan oracle path.
var scanOnly = classify.Config{MinRules: 1 << 30}

// compileAlways compiles at any rule count.
var compileAlways = classify.Config{MinRules: 1}

// fillTernaryMix installs the same pseudo-random mix of exact, LPM-style
// and masked rules into every given table: the cross-product of what
// newton_init and R-tables hold.
func fillTernaryMix(t *testing.T, rng *rand.Rand, n int, tabs ...*Table) {
	t.Helper()
	for i := 0; i < n; i++ {
		var vals, masks [2]uint64
		switch rng.Intn(4) {
		case 0: // exact (lands in the hash index)
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
		prio := rng.Intn(8)
		for _, tb := range tabs {
			if _, err := tb.AddRule(vals[:], masks[:], prio, namedAction("m")); err != nil {
				t.Fatalf("AddRule: %v", err)
			}
		}
	}
}

// TestTableClassifierEquivalence drives identical rule sets through a
// classifier-enabled table and a scan-forced oracle table and compares
// the full LookupAll order plus the best-match Lookup for a large key
// space — the dataplane-level equivalence contract.
func TestTableClassifierEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		fast := NewTable("fast", MatchTernary, 2, 4096)
		fast.SetClassifierConfig(compileAlways)
		oracle := NewTable("oracle", MatchTernary, 2, 4096)
		oracle.SetClassifierConfig(scanOnly)
		fillTernaryMix(t, rng, 10+rng.Intn(120), fast, oracle)

		var bufF, bufO []*Rule
		for k := 0; k < 200; k++ {
			vals := []uint64{uint64(rng.Uint32()), uint64(rng.Intn(512))}
			if k%3 == 0 { // bias into the exact-rule value range
				vals[0], vals[1] = uint64(rng.Intn(64)), uint64(rng.Intn(64))
			}
			bufF = fast.LookupAllAppend(bufF[:0], vals)
			bufO = oracle.LookupAllAppend(bufO[:0], vals)
			if len(bufF) != len(bufO) {
				t.Fatalf("trial %d key %v: classifier %d matches, oracle %d", trial, vals, len(bufF), len(bufO))
			}
			for i := range bufF {
				// Distinct Table instances: compare by position (IDs are
				// assigned identically by the shared install order).
				if bufF[i].ID != bufO[i].ID {
					t.Fatalf("trial %d key %v pos %d: rule %d vs oracle %d", trial, vals, i, bufF[i].ID, bufO[i].ID)
				}
			}
			bf, bo := fast.Lookup(vals[0], vals[1]), oracle.Lookup(vals[0], vals[1])
			switch {
			case (bf == nil) != (bo == nil):
				t.Fatalf("trial %d key %v: best %v vs oracle %v", trial, vals, bf, bo)
			case bf != nil && bf.ID != bo.ID:
				t.Fatalf("trial %d key %v: best rule %d vs oracle %d", trial, vals, bf.ID, bo.ID)
			}
		}
		if fast.TernaryScans() != 0 {
			t.Fatalf("trial %d: classifier table fell back to %d scans", trial, fast.TernaryScans())
		}
		if oracle.TernaryScans() == 0 {
			t.Fatalf("trial %d: oracle table never scanned", trial)
		}
	}
}

// TestTableClassifierSurvivesMutation asserts rule add/remove invalidates
// the compiled structure: each new snapshot recompiles and stays
// equivalent.
func TestTableClassifierSurvivesMutation(t *testing.T) {
	tb := NewTable("mut", MatchTernary, 1, 1024)
	tb.SetClassifierConfig(compileAlways)
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
	if !tb.ClassifierInfo().Compiled {
		t.Fatal("expected compiled classifier after lookup")
	}
	if err := tb.RemoveRule(ids[5]); err != nil {
		t.Fatal(err)
	}
	probe(false, 5<<8|3) // removed rule no longer matches
	probe(true, 6<<8|3)
	if _, err := tb.AddRule([]uint64{5 << 8}, []uint64{0xFFFFFF00}, 0, namedAction("back")); err != nil {
		t.Fatal(err)
	}
	probe(true, 5<<8|3)
	if !tb.ClassifierInfo().Compiled {
		t.Fatal("expected recompiled classifier after mutations")
	}
}

// TestTernaryScanCounter asserts the slow-path counter: a scan-forced
// table counts every ternary lookup, a compiled table none, and tables
// below MinRules count scans (the cheap-linear regime).
func TestTernaryScanCounter(t *testing.T) {
	tb := NewTable("count", MatchTernary, 1, 64)
	tb.SetClassifierConfig(classify.Config{MinRules: 8})
	for i := 0; i < 4; i++ {
		tb.AddRule([]uint64{uint64(i)}, []uint64{0xFF}, 0, namedAction("s"))
	}
	for i := 0; i < 10; i++ {
		tb.Lookup(uint64(i))
	}
	if got := tb.TernaryScans(); got != 10 {
		t.Fatalf("below-threshold table: %d scans, want 10", got)
	}
	info := tb.ClassifierInfo()
	if !info.Attempted || info.Compiled {
		t.Fatalf("below-threshold info = %+v, want attempted fallback", info)
	}
	for i := 4; i < 16; i++ {
		tb.AddRule([]uint64{uint64(i)}, []uint64{0xFF}, 0, namedAction("s"))
	}
	before := tb.TernaryScans()
	for i := 0; i < 10; i++ {
		tb.Lookup(uint64(i))
	}
	if got := tb.TernaryScans(); got != before {
		t.Fatalf("compiled table still scanning: %d -> %d", before, got)
	}
	if !tb.ClassifierInfo().Compiled {
		t.Fatal("16-rule table should compile")
	}
}

// TestTableClassifierZeroAlloc pins the classified packet path at zero
// allocations per lookup, for both Lookup and the append form.
func TestTableClassifierZeroAlloc(t *testing.T) {
	tb := NewTable("alloc", MatchTernary, 2, 8192)
	for i := 0; i < 4096; i++ {
		tb.AddRule([]uint64{uint64(i) << 8, 6}, []uint64{0xFFFFFF00, 0xFF}, 0, namedAction("p"))
	}
	vals := []uint64{uint64(1234) << 8, 6}
	buf := make([]*Rule, 0, 8)
	tb.Lookup(vals[0], vals[1]) // compile + warm
	if !tb.ClassifierInfo().Compiled {
		t.Fatal("4096-rule table should compile")
	}
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

// TestSetClassifierConfigBumpsVersion asserts config changes republish:
// dispatch caches keyed on Version must not serve stale classifications.
func TestSetClassifierConfigBumpsVersion(t *testing.T) {
	tb := NewTable("ver", MatchTernary, 1, 64)
	v0 := tb.Version()
	tb.SetClassifierConfig(scanOnly)
	if tb.Version() == v0 {
		t.Fatal("SetClassifierConfig did not bump the version")
	}
}
