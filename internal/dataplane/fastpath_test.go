package dataplane

import (
	"slices"
	"sync"
	"testing"
)

// TestTableConcurrentMutationRace hammers a table with rule mutation
// while readers run lookups over the copy-on-write snapshots. Run under
// -race this asserts the fast path's locking discipline: readers never
// observe a half-built rule set, and the pointers they get come from an
// immutable snapshot.
func TestTableConcurrentMutationRace(t *testing.T) {
	tb := NewTable("race", MatchTernary, 1, 1<<14)
	stop := make(chan struct{})
	var wg sync.WaitGroup

	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		var live []int
		for i := 0; i < 3000; i++ {
			mask := ^uint64(0)
			if i%3 == 0 {
				mask = 0xF0 // narrower masks: the full ones compile as points over them
			}
			id, err := tb.AddRule([]uint64{uint64(i % 64)}, []uint64{mask}, i%7, namedAction("w"))
			if err != nil {
				t.Errorf("AddRule: %v", err)
				return
			}
			live = append(live, id)
			if len(live) > 128 {
				if err := tb.RemoveRule(live[0]); err != nil {
					t.Errorf("RemoveRule: %v", err)
					return
				}
				live = live[1:]
			}
		}
	}()

	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf []*Rule
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				v := uint64(i % 64)
				tb.Lookup(v)
				buf = tb.LookupAllAppend(buf[:0], []uint64{v})
				for _, rule := range tb.Rules() {
					_ = rule.Priority // immutable snapshot: safe to walk
				}
			}
		}()
	}
	wg.Wait()
}

// TestRulesSnapshotIsImmutable asserts that the slice returned by
// Rules() is a point-in-time snapshot: later mutation must not change
// what an earlier caller holds.
func TestRulesSnapshotIsImmutable(t *testing.T) {
	tb := NewTable("snap", MatchTernary, 1, 64)
	id, _ := tb.AddRule([]uint64{1}, []uint64{^uint64(0)}, 5, namedAction("a"))
	before := tb.Rules()
	tb.AddRule([]uint64{2}, []uint64{^uint64(0)}, 9, namedAction("b"))
	tb.RemoveRule(id)
	if len(before) != 1 || before[0].ID != id {
		t.Fatalf("snapshot mutated: %v", before)
	}
	after := tb.Rules()
	if len(after) != 1 || after[0].ID == id {
		t.Fatalf("post-mutation snapshot wrong: %v", after)
	}
}

// TestLPMRejectsNonContiguousMask covers the prefix validation of LPM
// tables: a mask with a hole is not a prefix and must be refused.
func TestLPMRejectsNonContiguousMask(t *testing.T) {
	tb := NewTable("lpm", MatchLPM, 1, 16)
	if _, err := tb.AddRule([]uint64{0x0A000000}, []uint64{0xFF00FF00}, 0, namedAction("bad")); err == nil {
		t.Fatal("non-contiguous LPM mask accepted")
	}
	if _, err := tb.AddRule([]uint64{0x0A000000}, []uint64{0xFFFFFF00}, 0, namedAction("ok")); err != nil {
		t.Fatalf("contiguous /24 mask rejected: %v", err)
	}
	if _, err := tb.AddRule([]uint64{0}, []uint64{0}, 0, namedAction("default")); err != nil {
		t.Fatalf("zero mask (default route) rejected: %v", err)
	}
}

// TestExactIndexMatchesTernaryScan: a table holding both fully-masked
// rules (points in the classifier) and a partially-masked one must
// produce the TCAM order the reference scan would.
func TestExactIndexMatchesTernaryScan(t *testing.T) {
	tb := NewTable("mix", MatchTernary, 1, 64)
	exactHi, _ := tb.AddRule([]uint64{7}, []uint64{^uint64(0)}, 10, namedAction("exact-hi"))
	ternMid, _ := tb.AddRule([]uint64{0x07}, []uint64{0x0F}, 5, namedAction("tern-mid"))
	exactLo, _ := tb.AddRule([]uint64{7}, []uint64{^uint64(0)}, 1, namedAction("exact-lo"))

	got := tb.LookupAll(7)
	if ref := scanAppend(nil, tb.Rules(), []uint64{7}); !slices.Equal(got, ref) {
		t.Fatalf("LookupAll = %v, scan %v", got, ref)
	}
	want := []int{exactHi, ternMid, exactLo}
	if len(got) != len(want) {
		t.Fatalf("LookupAll = %d rules, want %d", len(got), len(want))
	}
	for i, id := range want {
		if got[i].ID != id {
			t.Errorf("match %d = rule %d, want %d", i, got[i].ID, id)
		}
	}
	if best := tb.Lookup(7); best == nil || best.ID != exactHi {
		t.Errorf("Lookup best = %v, want exact-hi", best)
	}
	// 0x17 masks to 0x07 under the ternary rule but misses both exacts.
	if best := tb.Lookup(0x17); best == nil || best.ID != ternMid {
		t.Errorf("Lookup(0x17) = %v, want ternary rule", best)
	}
}
