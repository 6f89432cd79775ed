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

// Known reports whether op is one of the operations above: Exec and
// ExecSeq panic on any other, so a program naming one is refused at
// install.
func (op SALUOp) Known() bool { return op >= 0 && op < numSALUOps }

// String names the ALU operation.
func (op SALUOp) String() string {
	if op.Known() {
		return saluNames[op]
	}
	return fmt.Sprintf("salu(%d)", int(op))
}

// RegisterArray is a line-rate-transactional array of 32-bit registers,
// each access performing one SALU operation: one query's row of a
// stage's state bank, made at install at exactly the width the query
// asked for and dropped at removal.
//
// A register is one uint32 word and nothing else. The windowed reset —
// "values of reduce and distinct are evaluated and reset every 100ms" —
// is Reset clearing the words, so the roll is a barrier: whoever rolls
// must have stopped packet delivery first (netsim rolls at batch
// barriers, the agents between windows).
//
// Exec makes every SALU transaction one atomic instruction (or a CAS
// loop for Or), which gives the parallel packet-delivery path (netsim's
// DeliverBatch) the per-register atomicity hardware has at line rate;
// ExecSeq is the same transaction as a plain read-modify-write for a
// single writer.
type RegisterArray struct {
	words []uint32
}

// NewRegisterArray allocates an array of size registers, all zero.
func NewRegisterArray(size uint32) *RegisterArray {
	if size == 0 {
		panic("dataplane: zero-size register array")
	}
	return &RegisterArray{words: make([]uint32, size)}
}

// Size returns the number of registers.
func (ra *RegisterArray) Size() uint32 { return uint32(len(ra.words)) }

// Reset starts a new window: every register is zeroed. It must not run
// concurrently with Exec, ExecSeq or a read of Registers.
func (ra *RegisterArray) Reset() { clear(ra.words) }

// Exec performs one stateful-ALU transaction on register idx and returns
// the op's result. Out-of-range indices panic: the hash-calculation
// module is responsible for folding hash results into range, and an
// out-of-range access is a compiler bug, not a runtime condition.
func (ra *RegisterArray) Exec(op SALUOp, idx uint32, operand uint32) uint32 {
	if idx >= uint32(len(ra.words)) {
		panic(fmt.Sprintf("dataplane: register %d out of range (size %d)", idx, len(ra.words)))
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
		panic(fmt.Sprintf("dataplane: register %d out of range (size %d)", idx, len(ra.words)))
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

// Registers returns the registers themselves, not a copy: read-only. A
// read belongs to the same barrier as Reset — taken just before the
// roll it is the ending window's final state — and like it must not run
// concurrently with Exec; the roll then zeroes what was read.
func (ra *RegisterArray) Registers() []uint32 { return ra.words }
