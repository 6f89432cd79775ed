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
// from a stage's RegisterBank.
//
// A register is one uint32 word and nothing else. The windowed reset —
// "values of reduce and distinct are evaluated and reset every 100ms" —
// is NextEpoch clearing the words, so the roll is a barrier: whoever
// rolls must have stopped packet delivery first (netsim rolls at batch
// barriers, the agents between windows).
//
// Exec makes every SALU transaction one atomic instruction (or a CAS
// loop for Or), which gives the parallel packet-delivery path (netsim's
// DeliverBatch) the per-register atomicity hardware has at line rate;
// ExecSeq is the same transaction as a plain read-modify-write for a
// single writer.
type RegisterArray struct {
	Name string

	words []uint32
	epoch atomic.Uint32 // windows rolled so far
}

// NewRegisterArray allocates a standalone array of size registers, all
// zero at epoch 0.
func NewRegisterArray(name string, size uint32) *RegisterArray {
	if size == 0 {
		panic("dataplane: zero-size register array")
	}
	return &RegisterArray{
		Name:  name,
		words: make([]uint32, size),
	}
}

// Size returns the number of registers.
func (ra *RegisterArray) Size() uint32 { return uint32(len(ra.words)) }

// NextEpoch starts a new window: every register is zeroed. It must not
// run concurrently with Exec, ExecSeq or Snapshot.
func (ra *RegisterArray) NextEpoch() {
	clear(ra.words)
	ra.epoch.Add(1)
}

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
	w := &ra.words[idx]
	switch op {
	case OpRead:
		return atomic.LoadUint32(w)
	case OpWrite:
		atomic.StoreUint32(w, operand)
		return operand
	case OpAdd:
		return atomic.AddUint32(w, operand)
	case OpOr:
		// A CAS loop, not atomic.OrUint32: go.mod says go 1.22.
		for {
			cur := atomic.LoadUint32(w)
			if cur|operand == cur || atomic.CompareAndSwapUint32(w, cur, cur|operand) {
				return cur
			}
		}
	}
	panic(fmt.Sprintf("dataplane: unknown SALU op %d", op))
}

// ExecSeq is Exec without the LOCK-prefixed instructions, for
// single-goroutine delivery (Context.Sequential): the same transaction
// as a plain read-modify-write, result for result what Exec returns to
// a lone writer.
func (ra *RegisterArray) ExecSeq(op SALUOp, idx uint32, operand uint32) uint32 {
	if idx >= uint32(len(ra.words)) {
		panic(fmt.Sprintf("dataplane: register %s[%d] out of range (size %d)", ra.Name, idx, len(ra.words)))
	}
	w := &ra.words[idx]
	switch op {
	case OpRead:
		return *w
	case OpWrite:
		*w = operand
		return operand
	case OpAdd:
		*w += operand
		return *w
	case OpOr:
		old := *w
		*w = old | operand
		return old
	}
	panic(fmt.Sprintf("dataplane: unknown SALU op %d", op))
}

// MemoryBytes returns the array's footprint, 4 B a register: the SRAM it
// models and what it costs the simulator's host are the same number.
func (ra *RegisterArray) MemoryBytes() int { return len(ra.words) * 4 }

// Snapshot copies every register into dst (grown as needed) and returns
// it. It belongs to the same barrier as NextEpoch — taken just before
// the roll it is the ending window's final state — and like it must not
// run concurrently with Exec.
func (ra *RegisterArray) Snapshot(dst []uint32) []uint32 {
	if cap(dst) < len(ra.words) {
		dst = make([]uint32, len(ra.words))
	}
	dst = dst[:len(ra.words)]
	copy(dst, ra.words)
	return dst
}
