package modules

import (
	"sync"
	"testing"

	"github.com/newton-net/newton/internal/dataplane"
	"github.com/newton-net/newton/internal/packet"
)

// shardedRun drives pkts through a fresh engine with the given worker
// count, sharding by the symmetric flow hash and running one goroutine
// per lane — the exact discipline of batch delivery. It returns the
// engine and the switch's drained reports.
func shardedRun(t *testing.T, prog *Program, pkts []*packet.Packet, workers int) (*Engine, []dataplane.Report) {
	t.Helper()
	l := compactLayout(t)
	eng := NewEngine(l)
	eng.SetWorkers(workers)
	if err := eng.Install(prog); err != nil {
		t.Fatalf("Install: %v", err)
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
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for _, pkt := range shards[w] {
				sw.ProcessLane(pkt, w)
			}
		}(w)
	}
	wg.Wait()
	return eng, sw.DrainReports()
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
// guard: a 4-worker engine on the shared banks must produce the same
// merged bank contents, the same packet counts, and the same number of
// threshold reports as the single-lane engine over the same trace.
func TestShardedSharedBanksMatchSequential(t *testing.T) {
	pkts := manyFlows(64, 1024)

	seqEng, seqReports := shardedRun(t, buildCountProgram(1, 3, 4096), pkts, 1)
	parEng, parReports := shardedRun(t, buildCountProgram(1, 3, 4096), pkts, 4)

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

	// One distinct flow per lane: the shared bank slots stay independent,
	// so every lane's first packet crosses the 0-threshold and reports.
	for w := 0; w < 4; w++ {
		sw.ProcessLane(synTo(uint32(100+w)), w)
		if n := sw.PendingReports(); n != 1 {
			t.Fatalf("lane %d: %d reports before remove, want 1", w, n)
		}
		sw.DrainReports()
	}
	if err := eng.Remove(1); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	for w := 0; w < 4; w++ {
		sw.ProcessLane(synTo(uint32(100+w)), w)
		if sw.PendingReports() != 0 {
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

	for w := 0; w < 4; w++ {
		for i := 0; i <= w; i++ { // lane w processes w+1 packets
			sw.ProcessLane(synTo(uint32(100+w)), w)
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

// TestExecuteOnUnsizedLanePanics: a switch lane the engine was not sized
// for is a wiring fault, and Execute panics on it as ProcessLane does on
// a lane past SetLanes. Run on lane 0 instead, two delivery goroutines
// would share lane 0's flow table and counters with no synchronisation.
func TestExecuteOnUnsizedLanePanics(t *testing.T) {
	eng := NewEngine(compactLayout(t))
	if err := eng.Install(buildCountProgram(1, 1<<30, 1024)); err != nil {
		t.Fatalf("Install: %v", err)
	}
	sw := dataplane.NewSwitch("s1", 8, StageCapacity())
	sw.AddRoute(0, 0, 1)
	sw.SetLanes(2)
	sw.Monitor = eng
	sw.ProcessLane(synTo(100), 0)
	defer func() {
		if recover() == nil {
			t.Fatal("lane 1 of a one-lane engine ran")
		}
		if pkts, _ := eng.LaneCounters(0); pkts != 1 {
			t.Fatalf("lane 0 counted %d packets, want its own 1", pkts)
		}
	}()
	sw.ProcessLane(synTo(101), 1)
}
