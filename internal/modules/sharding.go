package modules

import (
	"sync/atomic"

	"github.com/newton-net/newton/internal/obs"
)

// This file implements the sharded multi-worker engine: per-worker
// execution lanes (flow table, counters, latency sampling).
//
// One discipline each governs the two kinds of state under parallel
// delivery:
//
//   - Control-path state (flow table, key checksums, counters) is
//     worker-private: a lane is driven by one goroutine at a time
//     (dataplane.Context.Lane), so the per-packet path takes no locks
//     and issues no LOCK-prefixed instructions for it.
//
//   - Data-path state (the register banks) is shared, and every
//     transaction on it is one linearizable atomic operation
//     (RegisterArray.Exec), which keeps every windowed count exact
//     regardless of interleaving. Single-goroutine delivery
//     (Context.Sequential) runs the same transactions without the LOCK
//     prefix (ExecSeq).

// engineLane is one worker's private execution state. The leading and
// trailing pads keep hot per-lane counters on distinct cachelines so
// neighboring workers never false-share. All counters are single-writer
// (the lane's goroutine) and read by scrapes with atomic loads; writes
// use store-after-load atomics — plain MOVs on x86-64, no LOCK prefix.
type engineLane struct {
	_ [8]uint64

	pkts              uint64
	dispatchMisses    uint64
	dispatchEvictions uint64 // misses that evicted a live flow-table entry
	modExecs          [NumKinds]uint64

	// flows is the lane's newton_init dispatch state (dispatch.go).
	flows flowTable

	// keys is the per-packet key-checksum scratch (keyCRCs, engine.go).
	keys keyCRCs

	// execNS, when set via AttachObs, receives 1-in-execSampleEvery
	// sampled whole-Execute latencies for this lane. Nil when unobserved
	// so the fast path pays only a nil check.
	execNS *obs.Histogram

	_ [8]uint64
}

func newEngineLane(seed [2]uint64) *engineLane {
	return &engineLane{
		flows: newFlowTable(seed),
		keys:  keyCRCs{crc: make([]uint32, keyCRCSlots)},
	}
}

// bump increments a single-writer counter without a LOCK prefix while
// keeping concurrent atomic readers exact, and returns the new value.
func bump(p *uint64) uint64 {
	v := atomic.LoadUint64(p) + 1
	atomic.StoreUint64(p, v)
	return v
}

// add is bump for arbitrary increments.
func add(p *uint64, n uint64) {
	atomic.StoreUint64(p, atomic.LoadUint64(p)+n)
}

// SetWorkers sizes the engine for n delivery workers, one private lane
// per worker. Call it from the control plane (not concurrently with
// Execute); counters accumulated so far are preserved — folded into
// lane 0 when shrinking.
func (e *Engine) SetWorkers(n int) {
	if n < 1 {
		n = 1
	}
	if n == len(e.lanes) {
		return
	}
	for len(e.lanes) > n {
		last := e.lanes[len(e.lanes)-1]
		l0 := e.lanes[0]
		add(&l0.pkts, atomic.LoadUint64(&last.pkts))
		add(&l0.dispatchMisses, atomic.LoadUint64(&last.dispatchMisses))
		add(&l0.dispatchEvictions, atomic.LoadUint64(&last.dispatchEvictions))
		for k := range last.modExecs {
			add(&l0.modExecs[k], atomic.LoadUint64(&last.modExecs[k]))
		}
		e.lanes = e.lanes[:len(e.lanes)-1]
	}
	for len(e.lanes) < n {
		l := newEngineLane(e.seed)
		if e.laneObs != nil {
			l.execNS = e.laneObs(len(e.lanes))
		}
		e.lanes = append(e.lanes, l)
	}
}

// RollEpoch ends the current evaluation window: every installed
// program's registers are zeroed and the layout's epoch advances. It is
// the one epoch-roll entry point of an engine and, like Install, must not
// run beside packet delivery.
func (e *Engine) RollEpoch() {
	for _, p := range e.installed {
		for _, b := range p.Branches {
			for _, op := range b.Ops {
				if op.OwnsRegisters() {
					op.S.array.Reset()
				}
			}
		}
	}
	e.layout.epoch.Add(1)
}
