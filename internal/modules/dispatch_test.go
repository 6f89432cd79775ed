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
// two installed copies memoize different words for the same flow.
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
// slot and records its hashes there, the second replays them. If a
// slot ever served a memo word recorded by a different flow, by the
// other branch, or by nobody, a count would land in the wrong register.
// The oracle is BankSnapshot.Slot, which recomputes every flow's
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

// TestFlowTableStrideChange raises the memo stride with an install and
// lowers what a match set may use of it with a remove while flows are
// live in the table, and requires the default engine (entries re-laid
// at the wider stride, flows hitting in between) to report and count
// exactly as the pinned one (which recomputes nearly every hash).
func TestFlowTableStrideChange(t *testing.T) {
	type result struct {
		reports []dataplane.Report
		banks   [][]uint32
		strides [][2]int // the lane's stride and its cap after each phase
	}
	run := func(pin bool) (res result) {
		sw, eng := countSwitch(t, pin)
		traffic := func(qids ...int) {
			for i := 0; i < 4*40; i++ {
				sw.Process(synTo(uint32(2000 + i%40)))
			}
			res.reports = append(res.reports, sw.DrainReports()...)
			for _, qid := range qids {
				res.banks = append(res.banks, bankOf(t, eng, qid).Values)
			}
			ft := &eng.lanes[0].flows
			res.strides = append(res.strides, [2]int{ft.stride, ft.maxStride})
		}
		must := func(err error) {
			t.Helper()
			if err != nil {
				t.Fatal(err)
			}
		}
		must(eng.Install(seededCount(1, 2, 1)))
		traffic(1)
		must(eng.Install(seededCount(2, 5, 7))) // stride 1 → 2
		traffic(1, 2)
		must(eng.Remove(1)) // cap 2 → 1; query 2's memo moves to word 0
		traffic(2)
		must(eng.Remove(2))
		traffic()
		if pkts, misses, _ := eng.Counters(); !pin && misses*2 > pkts {
			t.Fatalf("default engine missed %d of %d packets: the memo was barely replayed", misses, pkts)
		}
		return res
	}
	want, got := run(true), run(false)
	if wantStrides := [][2]int{{1, 1}, {2, 2}, {2, 1}, {2, 0}}; !reflect.DeepEqual(got.strides, wantStrides) {
		t.Fatalf("{stride, cap} seen by the lane = %v, want %v", got.strides, wantStrides)
	}
	if len(want.reports) == 0 || !reflect.DeepEqual(got.reports, want.reports) {
		t.Errorf("reports differ across stride changes: %d default, %d pinned", len(got.reports), len(want.reports))
	}
	if !reflect.DeepEqual(got.banks, want.banks) {
		t.Error("banks differ across stride changes")
	}
}

// TestWideDirectKeyIsNotMemoized holds the memo's word size: a branch
// whose H passes a field wider than 32 bits straight through must not
// be replayed from a slot, where the value would come back truncated.
func TestWideDirectKeyIsNotMemoized(t *testing.T) {
	for direct, want := range map[fields.ID]bool{NoField: true, fields.DstIP: true, fields.Timestamp: false} {
		p := buildCountProgram(1, 1, 1024)
		p.Branches[0].Ops[1].H.Direct = direct
		prepareBranch(p.Branches[0])
		if got := p.Branches[0].hashPure; got != want {
			t.Errorf("direct field %v: hashPure = %v, want %v", direct, got, want)
		}
	}
}
