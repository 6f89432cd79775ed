package dataplane

import (
	"fmt"
	"sync/atomic"
)

// SALUOp is one of the stateful-ALU operations the state bank supports
// (§4.1: "Newton supports four types of ALU. As BF needs | and CM needs
// +, the supported ALUs are sufficient").
type SALUOp int

const (
	// OpRead returns the register value unchanged.
	OpRead SALUOp = iota
	// OpWrite stores the operand and returns it.
	OpWrite
	// OpAdd adds the operand and returns the new value (a Count-Min
	// row's increment-and-read).
	OpAdd
	// OpOr ORs the operand in and returns the previous value (a Bloom
	// filter's test-and-set).
	OpOr
	numSALUOps
)

var saluNames = [numSALUOps]string{"read", "write", "add", "or"}

// String names the ALU operation.
func (op SALUOp) String() string {
	if op >= 0 && op < numSALUOps {
		return saluNames[op]
	}
	return fmt.Sprintf("salu(%d)", int(op))
}

// RegisterBank is a stage's stateful memory as the control plane sees
// it: a name, a window epoch, and a budget of Size 32-bit registers that
// installed queries are admitted against. The bank holds no registers
// itself — every admitted allocation is a RegisterArray of exactly the
// requested width, made at install and dropped at removal, so the host
// memory a switch costs follows what is installed, not the budget.
//
// Alloc, Free and NextEpoch are control-plane operations: like NextEpoch
// on an array they must not run concurrently with each other or with
// Exec on the bank's arrays. The accessors may be read from any
// goroutine (metric scrapes).
type RegisterBank struct {
	Name string

	size     uint32        // admission budget, in registers
	admitted atomic.Uint32 // sum of the widths of rows
	epoch    atomic.Uint32
	rows     []*RegisterArray
}

// NewRegisterBank declares a bank with a budget of size registers.
func NewRegisterBank(name string, size uint32) *RegisterBank {
	if size == 0 {
		panic("dataplane: zero-size register bank")
	}
	return &RegisterBank{Name: name, size: size}
}

// Size returns the bank's admission budget in registers.
func (b *RegisterBank) Size() uint32 { return b.size }

// Admitted returns how many registers are currently allocated from the
// budget.
func (b *RegisterBank) Admitted() uint32 { return b.admitted.Load() }

// Epoch returns the bank's current window number.
func (b *RegisterBank) Epoch() uint32 { return b.epoch.Load() }

// Alloc admits width registers against the budget and returns them as a
// fresh all-zero array at the bank's epoch, or nil when the budget
// cannot cover them. The budget is a plain sum: any allocation no wider
// than Size minus Admitted succeeds, whatever was freed before it.
func (b *RegisterBank) Alloc(width uint32) *RegisterArray {
	if width > b.size-b.admitted.Load() {
		return nil
	}
	ra := NewRegisterArray(b.Name, width)
	ra.epoch.Store(b.epoch.Load())
	b.admitted.Add(width)
	b.rows = append(b.rows, ra)
	return ra
}

// Free returns an array allocated from this bank to the budget. The
// array stops rolling with the bank; its registers are garbage once the
// caller drops it.
func (b *RegisterBank) Free(ra *RegisterArray) {
	for i, r := range b.rows {
		if r == ra {
			last := len(b.rows) - 1
			b.rows[i] = b.rows[last]
			b.rows[last] = nil
			b.rows = b.rows[:last]
			b.admitted.Add(-ra.Size())
			return
		}
	}
}

// NextEpoch starts a new window on the bank and every array allocated
// from it.
func (b *RegisterBank) NextEpoch() {
	b.epoch.Add(1)
	for _, ra := range b.rows {
		ra.NextEpoch()
	}
}

// RegisterArray is a line-rate-transactional array of 32-bit registers,
// each access performing one SALU operation: one query's allocation
// from a stage's RegisterBank, or a worker-private shard of one.
//
// Registers are epoch-tagged to implement windowed reset lazily: the
// controller bumps the epoch every window (100 ms in the evaluation), and
// a register written in an older epoch reads as zero. This reproduces
// the "values of reduce and distinct are evaluated and reset every 100ms"
// discipline without a control-plane sweep.
//
// Each register packs its epoch tag and value into one uint64 word
// updated by compare-and-swap, so every SALU transaction is linearizable.
// Hardware performs one such transaction per packet per register at line
// rate; the CAS gives the parallel packet-delivery path (netsim's
// DeliverBatch) the same per-register atomicity, and on the sequential
// path the CAS never retries, keeping results bit-identical to a plain
// read-modify-write.
type RegisterArray struct {
	Name string

	// words[i] = epoch tag (high 32 bits) | value (low 32 bits).
	words []uint64
	epoch atomic.Uint32
}

// NewRegisterArray allocates a standalone array of size registers, all
// zero at epoch 0.
func NewRegisterArray(name string, size uint32) *RegisterArray {
	if size == 0 {
		panic("dataplane: zero-size register array")
	}
	return &RegisterArray{
		Name:  name,
		words: make([]uint64, size),
	}
}

// Size returns the number of registers.
func (ra *RegisterArray) Size() uint32 { return uint32(len(ra.words)) }

// NextEpoch starts a new window: all registers read as zero until
// rewritten. It must not run concurrently with Exec — netsim rolls
// epochs only at batch barriers.
func (ra *RegisterArray) NextEpoch() { ra.epoch.Add(1) }

// Epoch returns the current window number.
func (ra *RegisterArray) Epoch() uint32 { return ra.epoch.Load() }

// Exec performs one stateful-ALU transaction on register idx and returns
// the op's result. Out-of-range indices panic: the hash-calculation
// module is responsible for folding hash results into range, and an
// out-of-range access is a compiler bug, not a runtime condition.
func (ra *RegisterArray) Exec(op SALUOp, idx uint32, operand uint32) uint32 {
	if idx >= uint32(len(ra.words)) {
		panic(fmt.Sprintf("dataplane: register %s[%d] out of range (size %d)", ra.Name, idx, len(ra.words)))
	}
	epoch := ra.epoch.Load()
	w := &ra.words[idx]
	switch op {
	case OpRead:
		cur := atomic.LoadUint64(w)
		if uint32(cur>>32) != epoch {
			return 0 // stale window: reads as zero until rewritten
		}
		return uint32(cur)
	case OpWrite:
		// A blind store is linearizable without a CAS loop.
		atomic.StoreUint64(w, uint64(epoch)<<32|uint64(operand))
		return operand
	case OpAdd:
		for {
			cur := atomic.LoadUint64(w)
			val := uint32(cur)
			if uint32(cur>>32) != epoch {
				val = 0
			}
			next := val + operand
			if atomic.CompareAndSwapUint64(w, cur, uint64(epoch)<<32|uint64(next)) {
				return next
			}
		}
	case OpOr:
		for {
			cur := atomic.LoadUint64(w)
			val := uint32(cur)
			if uint32(cur>>32) != epoch {
				val = 0
			}
			if atomic.CompareAndSwapUint64(w, cur, uint64(epoch)<<32|uint64(val|operand)) {
				return val
			}
		}
	}
	panic(fmt.Sprintf("dataplane: unknown SALU op %d", op))
}

// ExecSeq is Exec without the LOCK-prefixed instructions, for
// single-goroutine delivery (Context.Sequential). It performs the same
// epoch-tagged read-modify-write; on the sequential path Exec's CAS
// never retries, so the two produce bit-identical results.
func (ra *RegisterArray) ExecSeq(op SALUOp, idx uint32, operand uint32) uint32 {
	if idx >= uint32(len(ra.words)) {
		panic(fmt.Sprintf("dataplane: register %s[%d] out of range (size %d)", ra.Name, idx, len(ra.words)))
	}
	epoch := ra.epoch.Load()
	w := &ra.words[idx]
	cur := *w
	val := uint32(cur)
	if uint32(cur>>32) != epoch {
		val = 0 // stale window: reads as zero until rewritten
	}
	switch op {
	case OpRead:
		return val
	case OpWrite:
		*w = uint64(epoch)<<32 | uint64(operand)
		return operand
	case OpAdd:
		next := val + operand
		*w = uint64(epoch)<<32 | uint64(next)
		return next
	case OpOr:
		*w = uint64(epoch)<<32 | uint64(val|operand)
		return val
	}
	panic(fmt.Sprintf("dataplane: unknown SALU op %d", op))
}

// MemoryBytes returns the SRAM footprint of the value array.
func (ra *RegisterArray) MemoryBytes() int { return len(ra.words) * 4 }

// HostBytes returns what the array costs the simulator's host: one
// epoch-tagged 8-byte word per register.
func (ra *RegisterArray) HostBytes() int { return len(ra.words) * 8 }

// Snapshot reads every register as of the current epoch into dst (grown
// as needed) and returns it. Registers last written in an older epoch
// read as zero, exactly as OpRead sees them — so a snapshot taken just
// before NextEpoch captures the ending window's final state. Reads are
// atomic per register; taken at an epoch boundary (netsim and the agents
// roll epochs only at batch barriers) the snapshot is a consistent view
// of the window.
func (ra *RegisterArray) Snapshot(dst []uint32) []uint32 {
	if cap(dst) < len(ra.words) {
		dst = make([]uint32, len(ra.words))
	}
	dst = dst[:len(ra.words)]
	epoch := ra.epoch.Load()
	for i := range ra.words {
		cur := atomic.LoadUint64(&ra.words[i])
		if uint32(cur>>32) == epoch {
			dst[i] = uint32(cur)
		} else {
			dst[i] = 0
		}
	}
	return dst
}
