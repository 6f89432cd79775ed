package modules_test

import (
	"runtime"
	"testing"

	"github.com/newton-net/newton/internal/compiler"
	"github.com/newton-net/newton/internal/dataplane"
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
// installed. Nine catalog queries at width 65536 hold 4 B a Count-Min
// register and a bit a Bloom register, while the ledger still counts
// every register of both; with them removed the engine is back to what
// it held empty — no bank keeps an array of its ArraySize, and none
// keeps a removed row.
func TestRemoveReleasesRegisters(t *testing.T) {
	l, err := modules.NewLayout(modules.LayoutCompact, 16, 1<<20)
	if err != nil {
		t.Fatalf("NewLayout: %v", err)
	}
	eng := modules.NewEngine(l)
	empty := liveHeap()

	var regs, host int64
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
		host += hostBytes(p)
	}
	// The registers the ledger and the footprint count are what they were
	// while a Bloom register was a word: 2818048, 983040 of them Bloom.
	if regs != 2818048 || host != 4*(2818048-983040)+983040/8 {
		t.Fatalf("%d registers installed in %d host bytes, want 2818048 in %d", regs, host, 4*(2818048-983040)+983040/8)
	}
	if got := eng.StateHostBytes(); got != host {
		t.Fatalf("StateHostBytes = %d, want %d for %d installed registers", got, host, regs)
	}
	if held := int64(liveHeap() - empty); held < host {
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

// hostBytes is what p's owning rows cost the host: 4 B a register of a
// Count-Min (or other word) row, 8 B a 64 registers of a Bloom row.
func hostBytes(p *modules.Program) (n int64) {
	for _, b := range p.Branches {
		for _, op := range b.Ops {
			switch {
			case !op.OwnsRegisters():
			case op.S.ALU == dataplane.OpOr:
				n += 8 * int64((op.Width()+63)/64)
			default:
				n += 4 * int64(op.Width())
			}
		}
	}
	return n
}
