package dataplane

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// TestRegisterRollIsSnapshotThenZero: a register is one word, so the
// windowed reset is Reset zeroing the row. A copy of the registers
// taken before the roll is the ending window's final state and is the
// caller's; the registers read after it are all zero, and the new window
// counts from zero in the very words Registers returned.
func TestRegisterRollIsSnapshotThenZero(t *testing.T) {
	ra := NewRegisterArray(8)
	for i := uint32(0); i < 8; i++ {
		ra.Exec(OpAdd, i, 10+i)
	}
	ra.Exec(OpOr, 7, 0x100)
	view := ra.Registers()
	final := slices.Clone(view)
	if want := []uint32{10, 11, 12, 13, 14, 15, 16, 17 | 0x100}; !slices.Equal(final, want) {
		t.Fatalf("snapshot before the roll = %v, want %v", final, want)
	}
	ra.Reset()
	if after := ra.Registers(); !slices.Equal(after, make([]uint32, 8)) {
		t.Fatalf("registers after the roll = %v, want zeros", after)
	}
	if final[3] != 13 {
		t.Fatal("the roll reached into a snapshot taken before it")
	}
	if got := ra.ExecSeq(OpAdd, 3, 2); got != 2 {
		t.Fatalf("first add of the new window = %d, want 2", got)
	}
	if got := ra.Registers(); &got[0] != &view[0] || view[3] != 2 {
		t.Fatalf("the registers are not a view: same words=%v slot 3 = %d", &got[0] == &view[0], view[3])
	}
}

// TestExecSeqMatchesExec drives one seeded stream of SALU transactions,
// rolls included, through Exec on one array and ExecSeq on another: to a
// lone writer they are the same machine, result for result and word for
// word.
func TestExecSeqMatchesExec(t *testing.T) {
	const size = 16
	a, b := NewRegisterArray(size), NewRegisterArray(size)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 20000; i++ {
		if rng.Intn(500) == 0 {
			a.Reset()
			b.Reset()
		}
		op, idx, operand := SALUOp(rng.Intn(int(numSALUOps))), uint32(rng.Intn(size)), rng.Uint32()>>uint(rng.Intn(32))
		if x, y := a.Exec(op, idx, operand), b.ExecSeq(op, idx, operand); x != y {
			t.Fatalf("step %d: %v [%d] %#x: Exec = %#x, ExecSeq = %#x", i, op, idx, operand, x, y)
		}
	}
	if x, y := a.Registers(), b.Registers(); !slices.Equal(x, y) {
		t.Fatalf("arrays differ after the stream: %v vs %v", x, y)
	}
}

// TestExecConcurrentWritersAreExact: four writers share one array
// through Exec, as DeliverBatch's lanes share a state-bank row. Every
// add must land and every bit must stick (run under -race in CI).
func TestExecConcurrentWritersAreExact(t *testing.T) {
	const writers, size, rounds = 4, 8, 5000
	ra := NewRegisterArray(2 * size)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				idx := uint32(i % size)
				ra.Exec(OpAdd, idx, uint32(w+1))
				ra.Exec(OpOr, size+idx, 1<<uint(8*w+i%8))
				ra.Exec(OpRead, idx, 0)
			}
		}(w)
	}
	wg.Wait()
	got := ra.Registers()
	for i := 0; i < size; i++ {
		if want := uint32(rounds / size * (1 + 2 + 3 + 4)); got[i] != want {
			t.Errorf("counter %d = %d, want %d: an add was lost", i, got[i], want)
		}
		if want := uint32(1<<uint(i)) * 0x01010101; got[size+i] != want {
			t.Errorf("bitmap %d = %#x, want %#x: a bit was lost", i, got[size+i], want)
		}
	}
}

// TestBloomRowMatchesWordOr drives one seeded stream of Bloom
// transactions, rolls included, through a BloomRow (Exec and ExecSeq on
// two rows) and through the 32-bit row a Bloom row was, OpOr of the
// constant 1 on a RegisterArray: result for result, and bit for
// nonzero register, the same — at widths on and off the word size.
func TestBloomRowMatchesWordOr(t *testing.T) {
	for _, size := range []uint32{1, 63, 64, 65, 1000} {
		a, b, ref := NewBloomRow(size), NewBloomRow(size), NewRegisterArray(size)
		if want := 8 * int((size+63)/64); a.MemoryBytes() != want {
			t.Fatalf("size %d: %d host bytes, want %d", size, a.MemoryBytes(), want)
		}
		rng := rand.New(rand.NewSource(int64(size)))
		for i := 0; i < 20000; i++ {
			if rng.Intn(400) == 0 {
				a.Reset()
				b.Reset()
				ref.Reset()
			}
			idx := uint32(rng.Intn(int(size)))
			want := ref.ExecSeq(OpOr, idx, 1)
			if x, y := a.Exec(idx), b.ExecSeq(idx); x != want || y != want {
				t.Fatalf("size %d step %d [%d]: Exec = %d, ExecSeq = %d, the word row %d", size, i, idx, x, y, want)
			}
		}
		for i, v := range ref.Registers() {
			for _, row := range []*BloomRow{a, b} {
				if bit := uint32(row.Words()[i/64]>>(i%64)) & 1; bit != v {
					t.Fatalf("size %d register %d: bit %d, word %d", size, i, bit, v)
				}
			}
		}
	}
}

// TestBloomRowConcurrentWritersAreExact: four writers test-and-set the
// same bits of one row through Exec, as DeliverBatch's lanes share a
// Bloom row. Every bit sticks, and each was found clear exactly once
// (run under -race in CI).
func TestBloomRowConcurrentWritersAreExact(t *testing.T) {
	const writers, size = 4, 200
	row := NewBloomRow(size)
	var wg sync.WaitGroup
	clearSeen := make([][]int, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			clearSeen[w] = make([]int, size)
			for i := 0; i < size; i++ {
				idx := uint32((i*7 + w) % size)
				clearSeen[w][idx] += int(1 - row.Exec(idx))
			}
		}(w)
	}
	wg.Wait()
	for i := 0; i < size; i++ {
		n := 0
		for w := range clearSeen {
			n += clearSeen[w][i]
		}
		if n != 1 || row.Words()[i/64]>>(i%64)&1 != 1 {
			t.Errorf("bit %d found clear %d times, set %d", i, n, row.Words()[i/64]>>(i%64)&1)
		}
	}
}
