package rpc

import (
	"bytes"
	"math"
	"testing"
	"time"

	"github.com/newton-net/newton/internal/wire"
)

// TestReplayCacheCappedUnderHammer hammers the dispatch path with far
// more distinct request IDs than the cache holds and asserts the cache
// never exceeds its cap — the regression this guards is unbounded
// per-request-ID growth under long-lived churn.
func TestReplayCacheCappedUnderHammer(t *testing.T) {
	agent, _ := testAgent(t)
	const hammer = 10 * replayCap
	for id := uint64(1); id <= hammer; id++ {
		resp := agent.dispatch(&wire.Request{Call: wire.CallStats, ID: id})
		if !resp.OK {
			t.Fatalf("stats %d: %+v", id, resp)
		}
		if n := agent.ReplayCacheLen(); n > replayCap {
			t.Fatalf("replay cache grew to %d entries (cap %d) after %d requests", n, replayCap, id)
		}
	}
	if n := agent.ReplayCacheLen(); n != replayCap {
		t.Fatalf("replay cache holds %d entries after hammer, want exactly %d", n, replayCap)
	}

	// The newest IDs must still replay (at-most-once survives eviction
	// of old entries), and evicted ones must re-execute without error.
	before := agent.ReplayHits()
	agent.dispatch(&wire.Request{Call: wire.CallStats, ID: hammer})
	if got := agent.ReplayHits(); got != before+1 {
		t.Fatalf("retransmit of newest ID missed the cache (hits %d -> %d)", before, got)
	}
	agent.dispatch(&wire.Request{Call: wire.CallStats, ID: 1})
	if got := agent.ReplayHits(); got != before+1 {
		t.Fatalf("evicted ID 1 still answered from cache")
	}
}

// TestReplayCacheAgesOut drives a fake clock past the TTL and asserts
// entries are evicted by age, not only by count — a low-rate agent must
// not pin replayCap responses forever.
func TestReplayCacheAgesOut(t *testing.T) {
	agent, _ := testAgent(t)
	now := time.Unix(1000, 0)
	agent.nowFn = func() time.Time { return now }

	for id := uint64(1); id <= 10; id++ {
		agent.dispatch(&wire.Request{Call: wire.CallStats, ID: id})
	}
	if n := agent.ReplayCacheLen(); n != 10 {
		t.Fatalf("cache holds %d entries, want 10", n)
	}

	// Within the TTL nothing ages out and retransmits still hit.
	now = now.Add(replayTTL)
	before := agent.ReplayHits()
	agent.dispatch(&wire.Request{Call: wire.CallStats, ID: 5})
	if got := agent.ReplayHits(); got != before+1 {
		t.Fatalf("in-TTL retransmit missed the cache")
	}

	// One tick past the TTL the old entries are gone; a new request
	// triggers the sweep.
	now = now.Add(replayTTL + time.Second)
	agent.dispatch(&wire.Request{Call: wire.CallStats, ID: 100})
	if n := agent.ReplayCacheLen(); n != 1 {
		t.Fatalf("cache holds %d entries after TTL sweep, want 1 (the fresh request)", n)
	}
	before = agent.ReplayHits()
	agent.dispatch(&wire.Request{Call: wire.CallStats, ID: 5})
	if got := agent.ReplayHits(); got != before {
		t.Fatalf("aged-out ID 5 still answered from cache")
	}
}

// TestRequestIDsPrintAtOneWidth: a control frame's length does not
// depend on the process's nonce draw. A request encodes to the same
// bytes count at the lowest and the highest ID, and a drawn ID is never
// zero, which would opt the call out of the replay cache.
func TestRequestIDsPrintAtOneWidth(t *testing.T) {
	frameLen := func(id uint64) int {
		var buf bytes.Buffer
		writeRequest(t, &buf, wire.Request{Call: wire.CallStats, ID: id})
		return buf.Len()
	}
	if lo, hi := frameLen(1), frameLen(math.MaxUint64); lo != hi {
		t.Fatalf("frame is %d bytes at ID 1, %d at the highest ID", lo, hi)
	}
	if id := nextReqID(); id == 0 {
		t.Fatal("a drawn request ID is zero")
	}
}
