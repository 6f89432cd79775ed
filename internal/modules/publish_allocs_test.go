package modules_test

import (
	"testing"

	"github.com/newton-net/newton/internal/compiler"
	"github.com/newton-net/newton/internal/modules"
	"github.com/newton-net/newton/internal/query"
)

// TestInstallPublishAllocs is the allocation guard of compiling
// newton_init on every write. The engine holds four q1s, and q7 comes
// and goes: the six-entry set (4×q1 + q7) a churn cycle publishes on its
// first switch. An Install and a Remove of q7 — one newton_init write,
// and so one compile, each — allocate 26 objects together on go1.24;
// a compile on the table's kept storage is 5 of them, the Compiled it
// returns. Before compiles kept their storage the same cycle took 24
// objects with newton_init left uncompiled, and 492 with it compiled
// once.
func TestInstallPublishAllocs(t *testing.T) {
	const limit = 30
	l, err := modules.NewLayout(modules.LayoutCompact, 16, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	eng := modules.NewEngine(l)
	compile := func(q *query.Query, qid int) *modules.Program {
		o := compiler.AllOpts()
		o.QID, o.Width = qid, 1<<12
		p, err := compiler.Compile(q, o)
		if err != nil {
			t.Fatalf("Compile %s: %v", q.Name, err)
		}
		return p
	}
	for qid := 1; qid <= 4; qid++ {
		if err := eng.Install(compile(query.All()[0], qid)); err != nil {
			t.Fatal(err)
		}
	}
	q7 := compile(query.All()[6], 5)
	cycle := func() {
		if err := eng.Install(q7); err != nil {
			t.Fatal(err)
		}
		if n := l.Init.Entries(); n != 6 {
			t.Fatalf("newton_init holds %d entries, want 6", n)
		}
		if err := eng.Remove(5); err != nil {
			t.Fatal(err)
		}
	}
	cycle() // warm the table's compile storage
	if avg := testing.AllocsPerRun(100, cycle); avg > limit {
		t.Fatalf("Install + Remove of q7 beside four q1s allocates %v, want at most %d", avg, limit)
	} else {
		t.Logf("Install + Remove of q7 beside four q1s: %v allocations", avg)
	}
}

// TestWellFormedAllocatesNothing: the domain walk Install runs on every
// program costs an accepted one no allocation.
func TestWellFormedAllocatesNothing(t *testing.T) {
	for i, q := range query.All() {
		o := compiler.AllOpts()
		o.QID, o.Width = i+1, 1<<10
		p, err := compiler.Compile(q, o)
		if err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(20, func() {
			if err := p.WellFormed(); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("%s: the domain walk allocates %v times", q.Name, n)
		}
	}
}
