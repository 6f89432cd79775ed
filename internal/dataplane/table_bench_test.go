package dataplane

import (
	"fmt"
	"testing"
)

// benchTable builds a newton_init-shaped 6-column ternary table with n
// distinct dst-prefix rules (the realistic large-rule-set shape: LPM on
// one address column, exact proto, wildcard elsewhere), in one Write.
func benchTable(b *testing.B, n int) *Table {
	b.Helper()
	tb := NewTable("bench", MatchTernary, 6, n*2)
	masks := []uint64{0, 0xFFFFFF00, 0xFF, 0, 0, 0}
	add := make([]*Rule, n)
	for i := range add {
		vals := []uint64{0, 0x0A000000 | uint64(i)<<8, 6, 0, 0, 0}
		add[i] = &Rule{Priority: i % 4, Values: vals, Masks: masks, Action: namedAction("b")}
	}
	if err := tb.Write(nil, add); err != nil {
		b.Fatal(err)
	}
	return tb
}

// BenchmarkTableLookup measures the per-packet table probe across rule
// counts and hit/miss: the table's compiled classifier against the
// linear scan (scanAppend, the test reference) over the same rules.
func BenchmarkTableLookup(b *testing.B) {
	for _, rules := range []int{16, 256, 4096, 32768} {
		tb := benchTable(b, rules)
		modes := []struct {
			name   string
			lookup func(dst []*Rule, vals []uint64) []*Rule
		}{
			{"compiled", tb.LookupAllAppend},
			{"scan", func(dst []*Rule, vals []uint64) []*Rule { return scanAppend(dst, tb.Rules(), vals) }},
		}
		hit := []uint64{0, 0x0A000000 | uint64(rules/2)<<8 | 0x42, 6, 1234, 80, 0x10}
		miss := []uint64{0, 0xC0A80000, 17, 1234, 80, 0}
		for _, mode := range modes {
			for _, probe := range []struct {
				name string
				key  []uint64
			}{{"hit", hit}, {"miss", miss}} {
				b.Run(fmt.Sprintf("rules=%d/%s/%s", rules, mode.name, probe.name), func(b *testing.B) {
					buf := make([]*Rule, 0, 8)
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						buf = mode.lookup(buf[:0], probe.key)
					}
					_ = buf
				})
			}
		}
	}
}
