package modules

import (
	"sync/atomic"

	"github.com/newton-net/newton/internal/dataplane"
	"github.com/newton-net/newton/internal/obs"
)

// This file implements the sharded multi-worker engine: per-worker
// execution lanes (flow table, counters, latency sampling) and the
// optional worker-private state-bank mode with its epoch-boundary
// merge.
//
// Two disciplines govern shared state under parallel delivery:
//
//   - Control-path state (flow table, key checksums, counters) is always
//     worker-private: a lane is driven by one goroutine at a time
//     (dataplane.Context.Lane), so the per-packet path takes no locks
//     and issues no LOCK-prefixed instructions for it.
//
//   - Data-path state (the register banks) is shared and linearizable
//     (CAS transactions) under BankShared — the default, which keeps
//     every windowed count exact regardless of interleaving — or
//     worker-private under BankPrivate for the bank rows where a
//     private shard provably merges back exactly: commutative ALUs
//     (Add, Or) with no result process earlier in the chain. Rows that
//     fail that predicate (threshold-gated reduces, Read/Write ALUs,
//     ExecSeq-dependent sequential flows) stay on the shared array —
//     non-commutative operations cannot be decomposed across workers
//     and must serialize on a single lane.

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

// BankMode selects the state-bank sharding discipline.
type BankMode int

const (
	// BankShared keeps every state bank on the shared register arrays
	// with linearizable (CAS) transactions: exact results at any worker
	// count, identical to single-lane execution for every permutation-
	// invariant quantity.
	BankShared BankMode = iota
	// BankPrivate gives each worker lane a private shard of every
	// shardable bank row (commutative ALU, no earlier result process in
	// the chain; see prepareBranch), merged counter-wise (CMS) or
	// bitwise-OR (Bloom) into the canonical bank at epoch boundaries.
	// Mid-window reads of a sharded row observe only the lane's partial
	// state, so threshold reports against sharded rows become
	// lane-local; merged epoch snapshots remain exact.
	BankPrivate
)

// String names the bank mode.
func (m BankMode) String() string {
	if m == BankPrivate {
		return "private"
	}
	return "shared"
}

// Workers returns the engine's lane count.
func (e *Engine) Workers() int { return len(e.lanes) }

// BankModeActive returns the active state-bank sharding discipline.
func (e *Engine) BankModeActive() BankMode { return e.bankMode }

// SetWorkers sizes the engine for n delivery workers, one private lane
// per worker. Call it from the control plane (not concurrently with
// Execute); counters accumulated so far are preserved — folded into
// lane 0 when shrinking. Under BankPrivate the per-lane bank shards of
// installed programs are resized to match.
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
	e.refreshLaneArrays()
}

// SetBankMode selects the state-bank sharding discipline. Like
// SetWorkers it is a control-plane operation; switching modes while a
// window is in flight loses the private shards' unmerged state, so do
// it at an epoch boundary (or before traffic).
func (e *Engine) SetBankMode(m BankMode) {
	if e.bankMode == m {
		return
	}
	e.bankMode = m
	e.refreshLaneArrays()
}

// allocLaneArrays gives an owning state-bank op its per-lane shards
// (BankPrivate with >1 lane only; otherwise clears them): standalone
// arrays as wide as the op's own, outside any bank's budget. Lane 0
// always executes against the canonical array, so slot 0 stays nil and
// the merge folds lanes 1..n-1 into the canonical array.
func (e *Engine) allocLaneArrays(s *SConfig) {
	e.stateBytes.Add(-s.shardBytes())
	s.laneArrays = nil
	if e.bankMode != BankPrivate || len(e.lanes) < 2 || !s.shardable {
		return
	}
	las := make([]*dataplane.RegisterArray, len(e.lanes))
	for w := 1; w < len(las); w++ {
		las[w] = dataplane.NewRegisterArray(s.array.Name+"/lane", s.width)
	}
	s.laneArrays = las
	e.stateBytes.Add(s.shardBytes())
}

// shardBytes is the host memory of the op's lane shards.
func (s *SConfig) shardBytes() int64 {
	n := 0
	for _, la := range s.laneArrays {
		if la != nil {
			n += la.MemoryBytes()
		}
	}
	return int64(n)
}

// refreshLaneArrays re-derives every installed program's per-lane bank
// shards after a worker-count or bank-mode change, then rebinds
// cross-branch reads to the refreshed shards.
func (e *Engine) refreshLaneArrays() {
	for _, p := range e.installed {
		for _, b := range p.Branches {
			for _, op := range b.Ops {
				s := op.S
				if op.Kind != ModS || s == nil || s.PassThrough || s.CrossRead || s.array == nil {
					continue
				}
				e.allocLaneArrays(s)
			}
		}
		for _, b := range p.Branches {
			for _, op := range b.Ops {
				s := op.S
				if op.Kind != ModS || s == nil || !s.CrossRead {
					continue
				}
				if target := e.findRow0(p, s.ReadBranch); target != nil {
					s.laneArrays = target.laneArrays
				}
			}
		}
	}
}

// MergeWorkers folds every private lane shard into its canonical array —
// counter-wise for CMS (Add) rows, bitwise-OR for Bloom (Or) rows — and
// resets the shards for the next window. Call it at an epoch boundary,
// after the workers joined and before the canonical epoch rolls, so
// exported snapshots see the whole window. It is idempotent: merged
// shards read as zero until rewritten. A no-op under BankShared.
func (e *Engine) MergeWorkers() {
	if e.bankMode != BankPrivate || len(e.lanes) < 2 {
		return
	}
	for _, p := range e.installed {
		for _, b := range p.Branches {
			for _, op := range b.Ops {
				s := op.S
				if op.Kind != ModS || s == nil || s.CrossRead || len(s.laneArrays) == 0 {
					continue
				}
				for _, la := range s.laneArrays {
					if la == nil {
						continue
					}
					e.mergeScratch = la.Snapshot(e.mergeScratch[:0])
					for i, v := range e.mergeScratch {
						if v == 0 {
							continue
						}
						s.array.ExecSeq(s.ALU, uint32(i), v)
					}
					la.NextEpoch()
				}
			}
		}
	}
}

// RollEpoch ends the current evaluation window: private lane shards (if
// any) merge into the canonical banks, then every register epoch rolls.
// This is the one epoch-roll entry point sharded deployments must use —
// rolling the pipeline directly would discard unmerged lane state.
func (e *Engine) RollEpoch() {
	e.MergeWorkers()
	e.layout.Pipeline().NextEpoch()
}
