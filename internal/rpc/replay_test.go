package rpc

import (
	"bytes"
	"math"
	"testing"
	"time"
)

// TestReplayCacheCappedUnderHammer hammers the dispatch path with far
// more distinct request IDs than the cache holds and asserts the cache
// never exceeds its cap — the regression this guards is unbounded
// per-request-ID growth under long-lived churn.
func TestReplayCacheCappedUnderHammer(t *testing.T) {
	agent, _ := testAgent(t)
	const hammer = 10 * replayCap
	for id := uint64(1); id <= hammer; id++ {
		resp := agent.dispatch(&Request{Type: typeStats, ID: id})
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
	agent.dispatch(&Request{Type: typeStats, ID: hammer})
	if got := agent.ReplayHits(); got != before+1 {
		t.Fatalf("retransmit of newest ID missed the cache (hits %d -> %d)", before, got)
	}
	agent.dispatch(&Request{Type: typeStats, ID: 1})
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
		agent.dispatch(&Request{Type: typeStats, ID: id})
	}
	if n := agent.ReplayCacheLen(); n != 10 {
		t.Fatalf("cache holds %d entries, want 10", n)
	}

	// Within the TTL nothing ages out and retransmits still hit.
	now = now.Add(replayTTL)
	before := agent.ReplayHits()
	agent.dispatch(&Request{Type: typeStats, ID: 5})
	if got := agent.ReplayHits(); got != before+1 {
		t.Fatalf("in-TTL retransmit missed the cache")
	}

	// One tick past the TTL the old entries are gone; a new request
	// triggers the sweep.
	now = now.Add(replayTTL + time.Second)
	agent.dispatch(&Request{Type: typeStats, ID: 100})
	if n := agent.ReplayCacheLen(); n != 1 {
		t.Fatalf("cache holds %d entries after TTL sweep, want 1 (the fresh request)", n)
	}
	before = agent.ReplayHits()
	agent.dispatch(&Request{Type: typeStats, ID: 5})
	if got := agent.ReplayHits(); got != before {
		t.Fatalf("aged-out ID 5 still answered from cache")
	}
}

// TestRequestIDsPrintAtOneWidth: a control frame's length does not
// depend on the process's nonce draw. A request encodes to the same
// bytes count at the lowest and the highest nonce (and any sequence
// number), and minNonce is the least nonce that does.
func TestRequestIDsPrintAtOneWidth(t *testing.T) {
	frameLen := func(id uint64) int {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, &Request{Type: typeStats, ID: id}); err != nil {
			t.Fatal(err)
		}
		return buf.Len()
	}
	lo := frameLen(minNonce<<32 | 1)
	if hi := frameLen(math.MaxUint32<<32 | math.MaxUint32); hi != lo {
		t.Fatalf("frame is %d bytes at the lowest nonce, %d at the highest", lo, hi)
	}
	if below := frameLen((minNonce-1)<<32 | 1); below == lo {
		t.Fatalf("nonce %d already prints at full width: minNonce is not the least", minNonce-1)
	}
	if n := reqNonce >> 32; n < minNonce {
		t.Fatalf("drawn nonce %d below minNonce %d", n, minNonce)
	}
}
