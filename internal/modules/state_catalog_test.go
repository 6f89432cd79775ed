package modules_test

import (
	"runtime"
	"testing"

	"github.com/newton-net/newton/internal/compiler"
	"github.com/newton-net/newton/internal/modules"
	"github.com/newton-net/newton/internal/query"
)

// liveHeap is the heap still reachable after two collections.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestRemoveReleasesRegisters: the memory of a switch follows what is
// installed. Nine catalog queries at width 65536 hold 4 B a register;
// with them removed the engine is back to what it held empty — no bank
// keeps an array of its ArraySize, and none keeps a removed row.
func TestRemoveReleasesRegisters(t *testing.T) {
	l, err := modules.NewLayout(modules.LayoutCompact, 16, 1<<20)
	if err != nil {
		t.Fatalf("NewLayout: %v", err)
	}
	eng := modules.NewEngine(l)
	empty := liveHeap()

	var regs int64
	for i, q := range query.All()[:9] {
		o := compiler.AllOpts()
		o.QID = i + 1
		o.Width = 1 << 16
		p, err := compiler.Compile(q, o)
		if err != nil {
			t.Fatalf("Compile %s: %v", q.Name, err)
		}
		if err := eng.Install(p); err != nil {
			t.Fatalf("Install %s: %v", q.Name, err)
		}
		regs += int64(p.Footprint().Registers)
	}
	if got := eng.StateHostBytes(); got != 4*regs {
		t.Fatalf("StateHostBytes = %d, want 4 x %d installed registers", got, regs)
	}
	if held := int64(liveHeap() - empty); held < 4*regs {
		t.Fatalf("installed rows hold %d B, less than their %d registers need", held, regs)
	}
	for qid := 1; qid <= 9; qid++ {
		if err := eng.Remove(qid); err != nil {
			t.Fatalf("Remove %d: %v", qid, err)
		}
	}
	const slack = 1 << 20
	if after := liveHeap(); after > empty+slack {
		t.Fatalf("heap after removing everything: %d B, %d B above the empty engine", after, after-empty)
	}
	if got := eng.StateHostBytes(); got != 0 {
		t.Fatalf("StateHostBytes = %d with nothing installed", got)
	}
	runtime.KeepAlive(eng)
}
