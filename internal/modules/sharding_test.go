package modules

import (
	"sync"
	"testing"

	"github.com/newton-net/newton/internal/dataplane"
	"github.com/newton-net/newton/internal/packet"
)

// shardedRun drives pkts through a fresh engine with the given worker
// count (and bank mode), sharding by the symmetric flow hash and running
// one goroutine per lane — the exact discipline of batch delivery. It
// returns the engine and the merged reports.
func shardedRun(t *testing.T, prog *Program, pkts []*packet.Packet, workers int, mode BankMode) (*Engine, []dataplane.Report) {
	t.Helper()
	return shardedRunAll(t, []*Program{prog}, pkts, workers, mode)
}

// shardedRunAll is shardedRun with several programs installed.
func shardedRunAll(t *testing.T, progs []*Program, pkts []*packet.Packet, workers int, mode BankMode) (*Engine, []dataplane.Report) {
	t.Helper()
	l := compactLayout(t)
	eng := NewEngine(l)
	eng.SetWorkers(workers)
	eng.SetBankMode(mode)
	for _, prog := range progs {
		if err := eng.Install(prog); err != nil {
			t.Fatalf("Install: %v", err)
		}
	}
	sw := dataplane.NewSwitch("s1", 8, StageCapacity())
	sw.AddRoute(0, 0, 1)
	sw.SetLanes(workers)
	sw.Monitor = eng

	if workers == 1 {
		for _, pkt := range pkts {
			sw.Process(pkt)
		}
		return eng, sw.DrainReports()
	}

	shards := make([][]*packet.Packet, workers)
	for _, pkt := range pkts {
		w := int(pkt.Flow().LaneHash() % uint64(workers))
		shards[w] = append(shards[w], pkt)
	}
	sinks := make([][]dataplane.Report, workers)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			ctx := dataplane.NewBatchContext(&sinks[w], w)
			for _, pkt := range shards[w] {
				sw.ProcessCtx(pkt, ctx)
			}
		}(w)
	}
	wg.Wait()
	var reports []dataplane.Report
	for _, s := range sinks {
		reports = append(reports, s...)
	}
	return eng, reports
}

// manyFlows builds count SYN packets spread over nFlows distinct flows,
// round-robin, so every lane sees traffic and flows repeat.
func manyFlows(nFlows, count int) []*packet.Packet {
	pkts := make([]*packet.Packet, 0, count)
	for i := 0; i < count; i++ {
		pkts = append(pkts, synTo(uint32(1000+i%nFlows)))
	}
	return pkts
}

// TestShardedSharedBanksMatchSequential is the engine-level equivalence
// guard: a 4-worker engine on shared (CAS) banks must produce the same
// merged bank contents, the same packet counts, and the same number of
// threshold reports as the single-lane engine over the same trace.
func TestShardedSharedBanksMatchSequential(t *testing.T) {
	pkts := manyFlows(64, 1024)

	seqEng, seqReports := shardedRun(t, buildCountProgram(1, 3, 4096), pkts, 1, BankShared)
	parEng, parReports := shardedRun(t, buildCountProgram(1, 3, 4096), pkts, 4, BankShared)

	if sp, _, _ := seqEng.Counters(); true {
		pp, _, _ := parEng.Counters()
		if sp != pp {
			t.Fatalf("packet counters diverge: sequential %d, sharded %d", sp, pp)
		}
	}
	if len(seqReports) != len(parReports) {
		t.Fatalf("report count diverges: sequential %d, sharded %d", len(seqReports), len(parReports))
	}

	seqBanks := seqEng.SnapshotBanks()
	parBanks := parEng.SnapshotBanks()
	if len(seqBanks) != len(parBanks) {
		t.Fatalf("bank count diverges: %d vs %d", len(seqBanks), len(parBanks))
	}
	for i := range seqBanks {
		a, b := seqBanks[i], parBanks[i]
		for s := range a.Values {
			if a.Values[s] != b.Values[s] {
				t.Fatalf("bank %d slot %d diverges: sequential %d, sharded %d", i, s, a.Values[s], b.Values[s])
			}
		}
	}
}

// TestBankPrivateMergeMatchesShared checks the worker-private bank mode
// against ground truth: private per-lane shards of a shardable (pure
// Add, gate-free) row, merged at the epoch boundary, must reproduce the
// single-lane bank slot for slot — and the merge must be idempotent.
func TestBankPrivateMergeMatchesShared(t *testing.T) {
	pkts := manyFlows(64, 1024)
	// Threshold far above any count: the chain is report-free, so the
	// banks alone carry the window's state.
	prog := func() *Program { return buildCountProgram(1, 1<<30, 4096) }

	seqEng, _ := shardedRun(t, prog(), pkts, 1, BankShared)
	privEng, _ := shardedRun(t, prog(), pkts, 4, BankPrivate)

	seqBanks := seqEng.SnapshotBanks()
	privBanks := privEng.SnapshotBanks() // merges the lane shards
	if len(seqBanks) != len(privBanks) || len(seqBanks) == 0 {
		t.Fatalf("bank count diverges: %d vs %d", len(seqBanks), len(privBanks))
	}
	for i := range seqBanks {
		a, b := seqBanks[i], privBanks[i]
		for s := range a.Values {
			if a.Values[s] != b.Values[s] {
				t.Fatalf("bank %d slot %d diverges: shared %d, private-merged %d", i, s, a.Values[s], b.Values[s])
			}
		}
	}

	// Idempotency: a second snapshot (second MergeWorkers) must not
	// double-count the already-merged shards.
	again := privEng.SnapshotBanks()
	for i := range privBanks {
		for s := range privBanks[i].Values {
			if privBanks[i].Values[s] != again[i].Values[s] {
				t.Fatalf("second merge changed bank %d slot %d: %d -> %d", i, s, privBanks[i].Values[s], again[i].Values[s])
			}
		}
	}

	// RollEpoch ends the window: the next window starts from zero on both
	// the canonical bank and every shard.
	privEng.RollEpoch()
	for _, b := range privEng.SnapshotBanks() {
		for s, v := range b.Values {
			if v != 0 {
				t.Fatalf("post-roll bank slot %d = %d, want 0", s, v)
			}
		}
	}
}

// TestShardableGatingPredicate checks the install-time predicate: a pure
// Add row with no earlier result process shards under BankPrivate, while
// the same row behind an R gate stays on the shared array (non-
// commutative control flow cannot be decomposed across workers).
func TestShardableGatingPredicate(t *testing.T) {
	l := compactLayout(t)
	eng := NewEngine(l)
	eng.SetWorkers(4)
	eng.SetBankMode(BankPrivate)

	// buildCountProgram's S precedes its R ops: shardable.
	if err := eng.Install(buildCountProgram(1, 1<<30, 1024)); err != nil {
		t.Fatalf("Install: %v", err)
	}
	var free, gated *SConfig
	for _, p := range eng.Programs() {
		for _, b := range p.Branches {
			for _, op := range b.Ops {
				if op.Kind == ModS && op.S != nil && !op.S.PassThrough && !op.S.CrossRead {
					free = op.S
				}
			}
		}
	}
	if free == nil {
		t.Fatal("no owning S op found")
	}
	if !free.shardable || len(free.laneArrays) != 4 {
		t.Fatalf("gate-free Add row not sharded: shardable=%v lanes=%d", free.shardable, len(free.laneArrays))
	}
	if free.laneArrays[0] != nil {
		t.Fatal("lane 0 must execute against the canonical array")
	}

	// Move the S after an R: the row must stay shared.
	p2 := buildCountProgram(2, 1<<30, 1024)
	ops := p2.Branches[0].Ops
	// Reorder to K, H, R(SetGlobal via raw value is invalid; instead put
	// the existing first R before S): K H R S R.
	ops[2], ops[3] = ops[3], ops[2]
	ops[2].Stage, ops[3].Stage = 3, 4
	if err := eng.Install(p2); err != nil {
		t.Fatalf("Install gated: %v", err)
	}
	for _, p := range eng.Programs() {
		if p.QID != 2 {
			continue
		}
		for _, b := range p.Branches {
			for _, op := range b.Ops {
				if op.Kind == ModS && op.S != nil && !op.S.PassThrough && !op.S.CrossRead {
					gated = op.S
				}
			}
		}
	}
	if gated == nil {
		t.Fatal("no owning S op in gated program")
	}
	if gated.shardable || gated.laneArrays != nil {
		t.Fatalf("R-gated row wrongly sharded: shardable=%v lanes=%d", gated.shardable, len(gated.laneArrays))
	}
}

// TestLaneDispatchInvalidation asserts every lane's private dispatch
// cache revalidates against the classifier version: after a remove, no
// lane may keep executing the chain its table remembers.
func TestLaneDispatchInvalidation(t *testing.T) {
	l := compactLayout(t)
	eng := NewEngine(l)
	eng.SetWorkers(4)
	if err := eng.Install(buildCountProgram(1, 0, 1024)); err != nil {
		t.Fatalf("Install: %v", err)
	}
	sw := dataplane.NewSwitch("s1", 8, StageCapacity())
	sw.AddRoute(0, 0, 1)
	sw.SetLanes(4)
	sw.Monitor = eng

	sinks := make([][]dataplane.Report, 4)
	ctxs := make([]*dataplane.Context, 4)
	for w := range ctxs {
		ctxs[w] = dataplane.NewBatchContext(&sinks[w], w)
	}
	// One distinct flow per lane: the shared bank slots stay independent,
	// so every lane's first packet crosses the 0-threshold and reports.
	for w := range ctxs {
		sw.ProcessCtx(synTo(uint32(100+w)), ctxs[w])
	}
	for w := range sinks {
		if len(sinks[w]) != 1 {
			t.Fatalf("lane %d: %d reports before remove, want 1", w, len(sinks[w]))
		}
		sinks[w] = sinks[w][:0]
	}
	if err := eng.Remove(1); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	for w := range ctxs {
		sw.ProcessCtx(synTo(uint32(100+w)), ctxs[w])
		if len(sinks[w]) != 0 {
			t.Fatalf("lane %d executed a stale chain after remove", w)
		}
	}
}

// TestSetWorkersFoldsCounters asserts shrinking the lane count preserves
// accumulated packet counts (folded into lane 0) and that per-lane
// counters sum to the engine totals while sharded.
func TestSetWorkersFoldsCounters(t *testing.T) {
	l := compactLayout(t)
	eng := NewEngine(l)
	eng.SetWorkers(4)
	if err := eng.Install(buildCountProgram(1, 1<<30, 1024)); err != nil {
		t.Fatalf("Install: %v", err)
	}
	sw := dataplane.NewSwitch("s1", 8, StageCapacity())
	sw.AddRoute(0, 0, 1)
	sw.SetLanes(4)
	sw.Monitor = eng

	var sink []dataplane.Report
	for w := 0; w < 4; w++ {
		ctx := dataplane.NewBatchContext(&sink, w)
		for i := 0; i <= w; i++ { // lane w processes w+1 packets
			sw.ProcessCtx(synTo(uint32(100+w)), ctx)
		}
	}
	var laneSum uint64
	for w := 0; w < 4; w++ {
		p, _ := eng.LaneCounters(w)
		laneSum += p
	}
	total, _, _ := eng.Counters()
	if total != 10 || laneSum != total {
		t.Fatalf("counters: total %d (want 10), lane sum %d", total, laneSum)
	}
	eng.SetWorkers(1)
	if total, _, _ = eng.Counters(); total != 10 {
		t.Fatalf("counts lost on shrink: %d, want 10", total)
	}
}
