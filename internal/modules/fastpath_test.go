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
// for the per-packet fast path: once a flow holds a slot, processing a
// packet must not allocate.
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
	sw.Process(pkt) // warm: claims the flow's slot
	if avg := testing.AllocsPerRun(200, func() {
		sw.Process(pkt)
	}); avg != 0 {
		t.Fatalf("steady-state allocs per packet = %v, want 0", avg)
	}
}
