package experiments

import (
	"runtime"
	"testing"
	"time"
)

// TestShardedExperimentEquivalence is the paper-level equivalence guard
// for the sharded engine: the batch-delivered experiment tables (Fig 10
// interruption, Fig 12 overhead, Fig 13 CQE overhead) must be
// byte-identical whether the host offers 1 or 4 threads. A network runs
// the lanes its caller names, and the figures name none, so they
// deliver on one lane — the order a hardware pipeline runs packets in —
// on any host. Fig 14 is held to its recorded table under 4 threads by
// TestFig14MatchesRecordedTable, and lane-count equivalence itself is
// checked where the lanes live, in netsim's
// TestDeliverBatchWorkersMatchSequential.
func TestShardedExperimentEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run experiment comparison")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))

	// Fig 12's nine queries share 4096-register rows among the trace's
	// keys: were the lane count taken from the host, which of two
	// colliding keys' packets crosses a threshold, and so Newton's
	// message count, would depend on how the lanes interleave.
	tables := func(procs int) []string {
		runtime.GOMAXPROCS(procs)
		return []string{
			Fig10Interruption(500, 10, 5000).String(),
			Fig12Overhead(800, 300*time.Millisecond).String(),
			Fig13CQEOverhead(3).String(),
		}
	}
	names := []string{"fig10", "fig12", "fig13"}
	seq := tables(1)
	par := tables(4)
	for i := range seq {
		if seq[i] != par[i] {
			t.Errorf("%s diverges between GOMAXPROCS 1 and 4:\n--- GOMAXPROCS=1 ---\n%s--- GOMAXPROCS=4 ---\n%s",
				names[i], seq[i], par[i])
		}
	}
}

// TestThroughputScalingZeroAlloc asserts the scaling experiment's timed
// passes run allocation-free at every worker count — the satellite
// acceptance criterion "0 allocs/pkt at every worker count". The count
// is the process's, and with two or more workers the runtime itself
// mallocs one to three times in a third of the runs (a sudog when a
// pool worker parks, a scavenger timer), so the bound is two mallocs a
// pass of ~136 000 packets rather than none: anything the packet path
// allocated per packet or per flow would be thousands.
func TestThroughputScalingZeroAlloc(t *testing.T) {
	r := ThroughputScaling(500, 100*time.Millisecond, []int{1, 2, 4})
	for _, row := range r.Rows {
		if row.Mallocs > 2*scalingPasses {
			t.Errorf("workers=%d: %d mallocs over %d timed passes (%v allocs/pkt), want at most %d",
				row.Workers, row.Mallocs, scalingPasses, row.AllocsPerPkt, 2*scalingPasses)
		}
	}
}

// TestWorkerScalingSmoke gates the parallel speedup: on hosts with at
// least 4 cores, 4 delivery lanes must clear 1.8x the single-lane
// packet rate. Single-core CI runners skip — there is no parallelism to
// measure.
func TestWorkerScalingSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive scaling measurement")
	}
	if runtime.NumCPU() < 4 {
		t.Skipf("host has %d CPUs; scaling smoke needs >= 4", runtime.NumCPU())
	}
	r := ThroughputScaling(2000, 400*time.Millisecond, []int{1, 4})
	got := r.Rows[1].Speedup
	if got < 1.8 {
		t.Fatalf("4-worker speedup %.2fx, want >= 1.8x (1w: %.0f pkts/s, 4w: %.0f pkts/s)",
			got, r.Rows[0].PktsPerSec, r.Rows[1].PktsPerSec)
	}
}
