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
// asked for and dropped at removal. A Bloom filter's row is a BloomRow.
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

// Reset starts a new window: every register is zeroed. It must not run
// concurrently with Exec, ExecSeq or a read of Registers.
func (ra *RegisterArray) Reset() { clear(ra.words) }

// Exec performs one stateful-ALU transaction on register idx and returns
// the op's result. The hash-calculation module folds every index into
// range, so an index past the array's width is a compiler bug and Go's
// bounds check traps it.
func (ra *RegisterArray) Exec(op SALUOp, idx uint32, operand uint32) uint32 {
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

// MemoryBytes returns what the array costs the host, 4 B a register.
func (ra *RegisterArray) MemoryBytes() int { return len(ra.words) * 4 }

// Registers returns the registers themselves, not a copy: read-only. A
// read belongs to the same barrier as Reset — taken just before the
// roll it is the ending window's final state — and like it must not run
// concurrently with Exec; the roll then zeroes what was read.
func (ra *RegisterArray) Registers() []uint32 { return ra.words }

// BloomRow is a Bloom filter's row of registers — one query's `distinct`
// row of a stage's state bank — held as a bitmap: register i is bit i%64
// of word i/64, the occupancy layout the snapshot codec and the analyzer
// keep too. The row's only transaction is the one a Bloom filter issues,
// OR-ing the constant 1 (a test-and-set), so a register never holds
// more than a bit: the row costs the host width/8 bytes, where the SRAM
// it models — and the ledger that admits it — spends 32 bits a register.
//
// The windowed reset and the reads follow RegisterArray's rules: Reset
// and Words are barriers against Exec and ExecSeq.
type BloomRow struct {
	words []uint64
}

// NewBloomRow allocates a row of size registers, all zero.
func NewBloomRow(size uint32) *BloomRow {
	if size == 0 {
		panic("dataplane: zero-size Bloom row")
	}
	return &BloomRow{words: make([]uint64, (uint64(size)+63)/64)}
}

// Reset starts a new window: every bit is cleared.
func (r *BloomRow) Reset() { clear(r.words) }

// Exec sets register idx to 1 and returns what it held, 0 or 1: the
// result RegisterArray.Exec(OpOr, idx, 1) returns for the register. It
// is one CAS (a loop under contention), so lanes sharing the row lose no
// bit and exactly one of them finds it clear. An index past the row is a
// compiler bug; Go's bounds check traps it.
func (r *BloomRow) Exec(idx uint32) uint32 {
	w, bit := &r.words[idx/64], uint64(1)<<(idx%64)
	for {
		cur := atomic.LoadUint64(w)
		if cur&bit != 0 {
			return 1
		}
		if atomic.CompareAndSwapUint64(w, cur, cur|bit) {
			return 0
		}
	}
}

// ExecSeq is Exec as a plain read-modify-write, for single-goroutine
// delivery.
func (r *BloomRow) ExecSeq(idx uint32) uint32 {
	w, bit := &r.words[idx/64], uint64(1)<<(idx%64)
	old := *w
	*w = old | bit
	return uint32(old>>(idx%64)) & 1
}

// MemoryBytes returns what the row costs the host, 8 B a 64 registers.
func (r *BloomRow) MemoryBytes() int { return len(r.words) * 8 }

// Words returns the row's bitmap itself, not a copy: read-only, under
// the barrier Registers documents.
func (r *BloomRow) Words() []uint64 { return r.words }
