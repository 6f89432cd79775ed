package modules

import (
	"testing"

	"github.com/newton-net/newton/internal/dataplane"
)

// TestDispatchCacheInvalidationOnInstallRemove asserts that the lane's
// flow table never serves a stale classification across query
// install/remove: the classifier's table version gates every hit.
func TestDispatchCacheInvalidationOnInstallRemove(t *testing.T) {
	l := compactLayout(t)
	eng := NewEngine(l)
	sw := dataplane.NewSwitch("s1", 8, StageCapacity())
	sw.AddRoute(0, 0, 1)
	sw.Monitor = eng

	// Prime the table with no queries installed: the flow's slot points
	// at the empty match set.
	sw.Process(synTo(42))
	if n := sw.PendingReports(); n != 0 {
		t.Fatalf("reports with nothing installed: %d", n)
	}

	// Install mid-stream. The same flow must re-classify and execute
	// the new chain (threshold 0: the first SYN reports).
	if err := eng.Install(buildCountProgram(1, 0, 1024)); err != nil {
		t.Fatalf("Install: %v", err)
	}
	sw.Process(synTo(42))
	if n := sw.PendingReports(); n != 1 {
		t.Fatalf("stale empty classification after install: %d reports, want 1", n)
	}
	sw.DrainReports()

	// Remove mid-stream. The cached chain must not keep executing.
	if err := eng.Remove(1); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	for i := 0; i < 5; i++ {
		sw.Process(synTo(42))
	}
	if n := sw.PendingReports(); n != 0 {
		t.Fatalf("stale chain executed after remove: %d reports", n)
	}
}

// TestProcessZeroAllocsSteadyState is the allocation regression test
// for the per-packet fast path: once a flow holds a slot and its hash
// memo is recorded, processing a packet must not allocate.
func TestProcessZeroAllocsSteadyState(t *testing.T) {
	l := compactLayout(t)
	eng := NewEngine(l)
	if err := eng.Install(buildCountProgram(1, 1<<30, 1024)); err != nil {
		t.Fatalf("Install: %v", err)
	}
	sw := dataplane.NewSwitch("s1", 8, StageCapacity())
	sw.AddRoute(0, 0, 1)
	sw.Monitor = eng

	pkt := synTo(42)
	sw.Process(pkt) // warm: claims the flow's slot and records its hash memo
	if avg := testing.AllocsPerRun(200, func() {
		sw.Process(pkt)
	}); avg != 0 {
		t.Fatalf("steady-state allocs per packet = %v, want 0", avg)
	}
}

// TestHashMemoMatchesRecompute drives two identical flows — one with a
// warm hash memo, one through a cold engine — and asserts the reported
// results agree, i.e. memoized hash replay is bit-identical to
// recomputation.
func TestHashMemoMatchesRecompute(t *testing.T) {
	run := func(warm bool) []dataplane.Report {
		l := compactLayout(t)
		eng := NewEngine(l)
		if err := eng.Install(buildCountProgram(1, 3, 1024)); err != nil {
			t.Fatalf("Install: %v", err)
		}
		sw := dataplane.NewSwitch("s1", 8, StageCapacity())
		sw.AddRoute(0, 0, 1)
		sw.Monitor = eng
		if warm {
			// Visit a boundary-window epoch so packets replay hashes.
			sw.Process(synTo(42))
			l.Pipeline().NextEpoch() // reset counts; memo survives
		}
		for i := 0; i < 10; i++ {
			sw.Process(synTo(42))
		}
		return sw.DrainReports()
	}
	cold := run(false)
	hot := run(true)
	if len(cold) != len(hot) {
		t.Fatalf("memoized run: %d reports, cold run: %d", len(hot), len(cold))
	}
	for i := range cold {
		if cold[i].Keys != hot[i].Keys || cold[i].State != hot[i].State || cold[i].Global != hot[i].Global {
			t.Errorf("report %d differs: cold %+v hot %+v", i, cold[i], hot[i])
		}
	}
}
