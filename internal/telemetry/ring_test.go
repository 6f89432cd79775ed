package telemetry

import (
	"testing"
	"time"

	"github.com/newton-net/newton/internal/dataplane"
)

func mkReports(base, n int) []dataplane.Report {
	rs := make([]dataplane.Report, n)
	for i := range rs {
		rs[i] = dataplane.Report{QueryID: 1, TS: uint64(base + i)}
	}
	return rs
}

func TestRingBlockPolicyBackpressures(t *testing.T) {
	r := newRing(4, PolicyBlock)
	if got := r.put(mkReports(0, 4)); got != 4 {
		t.Fatalf("put = %d, want 4", got)
	}

	// The fifth put must block until the consumer drains.
	unblocked := make(chan int)
	go func() { unblocked <- r.put(mkReports(4, 1)) }()
	select {
	case <-unblocked:
		t.Fatal("put returned on a full block-policy ring")
	case <-time.After(50 * time.Millisecond):
	}

	got := r.drainUpTo(2, nil)
	if len(got) != 2 || got[0].TS != 0 || got[1].TS != 1 {
		t.Fatalf("drained %v, want TS 0,1", got)
	}
	select {
	case n := <-unblocked:
		if n != 1 {
			t.Fatalf("blocked put accepted %d, want 1", n)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("put stayed blocked after drain")
	}

	dropped, overflows := r.stats()
	if dropped != 0 {
		t.Errorf("dropped = %d under block policy", dropped)
	}
	if overflows == 0 {
		t.Error("the full-ring event went uncounted")
	}
	// FIFO order held across the wrap: 2,3 then the late 4.
	rest := r.drainUpTo(10, nil)
	if len(rest) != 3 || rest[0].TS != 2 || rest[2].TS != 4 {
		t.Errorf("tail = %v, want TS 2,3,4", rest)
	}
}

func TestRingDropOldestEvictsAndCounts(t *testing.T) {
	r := newRing(4, PolicyDropOldest)
	if got := r.put(mkReports(0, 10)); got != 10 {
		t.Fatalf("put = %d, want 10 (drop-oldest always admits)", got)
	}
	dropped, overflows := r.stats()
	if dropped != 6 {
		t.Errorf("dropped = %d, want 6", dropped)
	}
	// One full-ring EVENT, not one per evicted report: the six evictions
	// happen back-to-back with no intervening drain, so they are a single
	// burst (pre-fix code counted 6 here).
	if overflows != 1 {
		t.Errorf("overflows = %d, want 1 (one burst)", overflows)
	}
	// The freshest four survive.
	got := r.drainUpTo(10, nil)
	if len(got) != 4 || got[0].TS != 6 || got[3].TS != 9 {
		t.Errorf("survivors = %v, want TS 6..9", got)
	}
}

func TestRingOverflowCountsOnePerBurst(t *testing.T) {
	r := newRing(4, PolicyDropOldest)

	// Burst 1: fill then overrun by 3 in two separate puts — still one
	// burst because no drain freed space in between.
	r.put(mkReports(0, 6))
	r.put(mkReports(6, 1))
	if dropped, overflows := r.stats(); dropped != 3 || overflows != 1 {
		t.Fatalf("after burst 1: dropped=%d overflows=%d, want 3/1", dropped, overflows)
	}

	// A drain frees space and closes the burst.
	r.drainUpTo(2, nil)

	// Burst 2: refill and overrun again — a new full-ring event.
	r.put(mkReports(7, 4))
	if dropped, overflows := r.stats(); dropped != 5 || overflows != 2 {
		t.Fatalf("after burst 2: dropped=%d overflows=%d, want 5/2", dropped, overflows)
	}

	// A drain that empties the ring followed by a non-overflowing put
	// counts nothing.
	r.drainUpTo(10, nil)
	r.put(mkReports(20, 2))
	if _, overflows := r.stats(); overflows != 2 {
		t.Fatalf("non-overflowing put counted a burst: overflows=%d, want 2", overflows)
	}
}

func TestRingCloseWakesBlockedProducerAndDrainsTail(t *testing.T) {
	r := newRing(2, PolicyBlock)
	r.put(mkReports(0, 2))
	done := make(chan int)
	go func() { done <- r.put(mkReports(2, 1)) }()
	time.Sleep(20 * time.Millisecond)
	r.close()
	select {
	case n := <-done:
		if n != 0 {
			t.Errorf("closed ring accepted %d reports mid-block", n)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("close left the producer blocked")
	}
	// Pending reports stay drainable; after that, nil signals shutdown.
	if got := r.drainUpTo(10, nil); len(got) != 2 {
		t.Fatalf("drained %d after close, want 2", len(got))
	}
	if got := r.drainUpTo(10, nil); got != nil {
		t.Fatalf("drain on empty closed ring = %v, want nil", got)
	}
}

// TestRingGrowsOnDemand: the ring's bound is its configured size, but
// its memory is what the queue has needed — it starts at minRingSize
// and doubles when full, keeping FIFO order across a wrapped buffer,
// and only at the bound does the overflow policy (and its counters)
// come into play.
func TestRingGrowsOnDemand(t *testing.T) {
	r := newRing(200, PolicyDropOldest)
	if len(r.buf) != minRingSize {
		t.Fatalf("a fresh ring of 200 allocates %d slots, want %d", len(r.buf), minRingSize)
	}
	// Wrap the small buffer first, so growing has to unroll it.
	r.put(mkReports(0, 40))
	if got := r.drainUpTo(30, nil); len(got) != 30 || got[29].TS != 29 {
		t.Fatalf("drained %d", len(got))
	}
	r.put(mkReports(40, 150)) // 160 queued: 64 -> 128 -> 200
	if len(r.buf) != 200 {
		t.Fatalf("ring holding 160 reports has %d slots, want the bound, 200", len(r.buf))
	}
	if dropped, overflows := r.stats(); dropped != 0 || overflows != 0 {
		t.Fatalf("growing counted as overflow: dropped %d, overflows %d", dropped, overflows)
	}
	r.put(mkReports(190, 50)) // 210 offered against 200: the 10 oldest go
	if dropped, overflows := r.stats(); dropped != 10 || overflows != 1 || len(r.buf) != 200 {
		t.Fatalf("at the bound: dropped %d, overflows %d, %d slots", dropped, overflows, len(r.buf))
	}
	got := r.drainUpTo(1000, nil)
	if len(got) != 200 {
		t.Fatalf("drained %d reports, want 200", len(got))
	}
	for i, rep := range got {
		if rep.TS != uint64(40+i) {
			t.Fatalf("report %d has TS %d, want %d: order lost across growth", i, rep.TS, 40+i)
		}
	}
}
