package modules

import (
	"reflect"
	"testing"

	"github.com/newton-net/newton/internal/dataplane"
	"github.com/newton-net/newton/internal/fields"
)

// countSwitch builds a switch over a fresh engine; pin shrinks the
// engine's flow table to one set.
func countSwitch(t *testing.T, pin bool) (*dataplane.Switch, *Engine) {
	t.Helper()
	eng := NewEngine(compactLayout(t))
	if pin {
		eng.PinFlowTablesToOneSet()
	}
	sw := dataplane.NewSwitch("s1", 8, StageCapacity())
	sw.AddRoute(0, 0, 1)
	sw.Monitor = eng
	return sw, eng
}

// seededCount is buildCountProgram with its H op on another seed, so
// two installed copies derive different slots from one key checksum.
func seededCount(qid int, th int64, seed uint32) *Program {
	p := buildCountProgram(qid, th, 1024)
	p.Branches[0].Ops[1].H.Seed = seed
	return p
}

// bankOf returns the single count row of query qid.
func bankOf(t *testing.T, eng *Engine, qid int) BankSnapshot {
	t.Helper()
	for _, b := range eng.SnapshotBanks() {
		if b.QueryID == qid {
			return b
		}
	}
	t.Fatalf("query %d has no bank", qid)
	return BankSnapshot{}
}

// TestFlowTableCollisionSafety forces 64 flows through one 16-way set,
// two packets back to back per visit: the first evicts another flow's
// slot, the second hits the slot just claimed. If a slot ever served
// another flow's match set, or the two queries (one key, two seeds)
// confused their shares of the packet's one key checksum, a count would
// land in the wrong register. The oracle is BankSnapshot.Slot, which recomputes every flow's
// register from the H configuration without the engine.
func TestFlowTableCollisionSafety(t *testing.T) {
	const flows, rounds, never = 64, 5, 1 << 40
	dstOf := func(f int) uint32 { return uint32(1000 + f) }
	for _, pin := range []bool{true, false} {
		sw, eng := countSwitch(t, pin)
		for qid, seed := range map[int]uint32{1: 1, 2: 7} {
			if err := eng.Install(seededCount(qid, never, seed)); err != nil {
				t.Fatalf("Install: %v", err)
			}
		}
		for r := 0; r < rounds; r++ {
			for f := 0; f < flows; f++ {
				sw.Process(synTo(dstOf(f)))
				sw.Process(synTo(dstOf(f)))
			}
		}
		// Pinned: the first packet of every visit evicts, but for the first
		// flowWays. Default: a flow misses once.
		pkts, misses, _ := eng.Counters()
		if ev := eng.dispatchEvictions(-1); pin && ev < pkts/2-flowWays {
			t.Errorf("pinned: %d evictions over %d visits", ev, pkts/2)
		} else if !pin && (misses != flows || ev != 0) {
			t.Errorf("default: %d misses and %d evictions for %d flows", misses, ev, flows)
		}
		for qid := 1; qid <= 2; qid++ {
			got := bankOf(t, eng, qid)
			want := make([]uint32, got.Width)
			for f := 0; f < flows; f++ {
				var v fields.Vector
				v.Set(fields.DstIP, uint64(dstOf(f)))
				want[got.Slot(got.KeyMask.Bytes(&v, nil))] += 2 * rounds
			}
			if !reflect.DeepEqual(got.Values, want) {
				t.Errorf("pin=%v: query %d counted flows in registers their hashes do not select", pin, qid)
			}
		}
	}
}

// TestMaskTableFollowsInstalls: the K masks of installed programs are
// interned per engine and counted by reference, so queries keying on
// one mask share an index, a removed or failed install gives its
// references back, and an install/remove loop of ever-new masks reuses
// the freed entry instead of growing the table.
func TestMaskTableFollowsInstalls(t *testing.T) {
	eng := NewEngine(bankLayout(t, 4096))
	live := func() (n int) {
		for _, m := range eng.masks {
			if m.refs > 0 {
				n++
			}
		}
		return n
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	masked := func(qid int, m fields.Mask) *Program {
		p := buildCountProgram(qid, 1, 1024)
		p.Branches[0].Ops[0].K.Mask = m
		return p
	}
	dip := fields.Keep(fields.DstIP)
	a, b := masked(1, dip), masked(2, dip)
	must(eng.Install(a))
	must(eng.Install(b))
	if ia, ib := a.Branches[0].Ops[0].K.idx, b.Branches[0].Ops[0].K.idx; ia != ib || live() != 1 {
		t.Fatalf("two queries on one mask hold indices %d and %d in %d live entries", ia, ib, live())
	}
	must(eng.Remove(2))
	start := len(eng.masks)
	for i := 0; i < 200; i++ {
		p := masked(3, dip.WithBits(fields.SrcIP, uint64(i+1)))
		if i%2 == 1 {
			// Fails after interning (the bank cannot hold it): rolled back.
			p.Branches[0].Ops[2].S.WidthHint = 1 << 20
			if err := eng.Install(p); err == nil {
				t.Fatal("install past the bank's budget accepted")
			}
			continue
		}
		must(eng.Install(p))
		if p.Branches[0].Ops[0].K.idx == a.Branches[0].Ops[0].K.idx {
			t.Fatalf("round %d: a new mask took the index of a live one", i)
		}
		must(eng.Remove(3))
	}
	if len(eng.masks) != start+1 || live() != 1 {
		t.Fatalf("mask table after the loop: %d entries (%d live), started at %d (1 live)", len(eng.masks), live(), start)
	}
	must(eng.Remove(1))
	if live() != 0 {
		t.Fatalf("%d masks still referenced with nothing installed", live())
	}
}

// TestMaskIndexPastScratchHashesUncached installs more distinct K masks
// than a lane's scratch has words: the queries whose mask index lies
// past it hash uncached, the others from the scratch, and every one of
// them must count each flow in the register BankSnapshot.Slot computes
// from the H configuration alone.
func TestMaskIndexPastScratchHashesUncached(t *testing.T) {
	const queries, flows, never = keyCRCSlots + 6, 40, 1 << 40
	eng := NewEngine(bankLayout(t, queries*1024))
	sw := dataplane.NewSwitch("s1", 8, StageCapacity())
	sw.AddRoute(0, 0, 1)
	sw.Monitor = eng
	past := 0
	for qid := 1; qid <= queries; qid++ {
		p := seededCount(qid, never, uint32(qid))
		k := p.Branches[0].Ops[0].K
		k.Mask = k.Mask.WithBits(fields.SrcPort, uint64(qid)) // dip + some bits of sport: a mask of its own
		if err := eng.Install(p); err != nil {
			t.Fatalf("Install %d: %v", qid, err)
		}
		if k.idx >= keyCRCSlots {
			past++
		}
	}
	if past != queries-keyCRCSlots {
		t.Fatalf("%d masks interned past the scratch, want %d", past, queries-keyCRCSlots)
	}
	pkt := synTo(0)
	for f := 0; f < flows; f++ {
		pkt.IP.Dst, pkt.TCP.SrcPort = uint32(3000+f), uint16(7*f)
		sw.Process(pkt)
	}
	for qid := 1; qid <= queries; qid++ {
		got := bankOf(t, eng, qid)
		want := make([]uint32, got.Width)
		for f := 0; f < flows; f++ {
			var v fields.Vector
			v.Set(fields.DstIP, uint64(3000+f))
			v.Set(fields.SrcPort, uint64(7*f))
			want[got.Slot(got.KeyMask.Bytes(&v, nil))]++
		}
		if !reflect.DeepEqual(got.Values, want) {
			t.Errorf("query %d (mask index %d): flows counted in registers their hashes do not select",
				qid, eng.Installed(qid).Branches[0].Ops[0].K.idx)
		}
	}
}

// TestHashWithoutKeySelectionUsesKeysAsLeft: an H op no K op of its own
// chain precedes has no interned mask to look a checksum up by. It
// hashes the operation keys as it finds them — here the ones the
// packet's previous chain selected — never a scratch word some other
// mask filled.
func TestHashWithoutKeySelectionUsesKeysAsLeft(t *testing.T) {
	sw, eng := countSwitch(t, false)
	owner := buildCountProgram(1, 1<<40, 1024) // K(dip) H S: selects the keys
	heir := seededCount(2, 1<<40, 9)
	heir.Branches[0].Ops = heir.Branches[0].Ops[1:] // H S R R: inherits them
	for _, p := range []*Program{owner, heir} {
		if err := eng.Install(p); err != nil {
			t.Fatalf("Install %d: %v", p.QID, err)
		}
	}
	const flows = 40
	for f := 0; f < flows; f++ {
		sw.Process(synTo(uint32(5000 + f)))
	}
	got, dip := bankOf(t, eng, 2), fields.Keep(fields.DstIP)
	want := make([]uint32, got.Width)
	for f := 0; f < flows; f++ {
		var v fields.Vector
		v.Set(fields.DstIP, uint64(5000+f))
		want[got.Slot(dip.Bytes(&v, nil))]++
	}
	if !reflect.DeepEqual(got.Values, want) {
		t.Error("the inheriting chain did not hash the keys the previous chain left")
	}
}
