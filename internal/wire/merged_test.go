package wire

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"github.com/newton-net/newton/internal/modules"
)

// The analyzer's merge as it was before merged rows were held as cells
// (commit dda309c): a dense []uint64 per row at the bank's width, cells
// added or ORed in at their indexes, a key's register read by index, the
// row's total and fill summed over the width. It is kept, otherwise
// verbatim, as the reference MergedCells is checked against
// (FuzzMergedCellsVsDense). One change: a Bloom bank's cells are bits,
// so OrInto ORs in a 1 for each, where it ORed in a decoded value.

// AddTo adds each register to its counter in dst, which must span the
// bank's width: the Count-Min merge.
func (c Cells) AddTo(dst []uint64) {
	k := 0
	for w, word := range c.set.occ {
		for ; word != 0; word &= word - 1 {
			dst[w*64+bits.TrailingZeros64(word)] += uint64(c.set.vals[k])
			k++
		}
	}
}

// OrInto ORs each register of a Bloom bank, a 1, into its word in dst,
// which must span the bank's width: the Bloom merge.
func (c Cells) OrInto(dst []uint64) {
	for w, word := range c.set.occ {
		for ; word != 0; word &= word - 1 {
			dst[w*64+bits.TrailingZeros64(word)] |= 1
		}
	}
}

// rowSum is a merged row's counter total, rowSet the number of its slots
// that are set.
func rowSum(row []uint64) (sum uint64) {
	for _, v := range row {
		sum += v
	}
	return sum
}

func rowSet(row []uint64) (set int) {
	for _, v := range row {
		if v != 0 {
			set++
		}
	}
	return set
}

// denseRow is one merged row of the reference: mergeBankLocked's first
// merge made it, make([]uint64, b.Width), and every contribution went in
// with AddTo or OrInto.
type denseRow struct {
	bloom  bool
	values []uint64
}

func (d *denseRow) merge(c Cells) {
	if d.bloom {
		c.OrInto(d.values)
	} else {
		c.AddTo(d.values)
	}
}

// checkMerged holds a row to the reference: Dense is its values, the
// read at every index is its value there, Sum and Nonzero are its rowSum
// and rowSet — and the cells are well formed: one bit a nonzero value,
// none past the width, values in index order.
func checkMerged(t *testing.T, what string, m *MergedCells, want *denseRow) {
	t.Helper()
	width := uint32(len(want.values))
	if got := m.Dense(); !slices.Equal(got, want.values) {
		t.Fatalf("%s: expands to %v, dense merge %v", what, got, want.values)
	}
	for i, v := range want.values {
		if got := m.At(uint32(i)); got != v {
			t.Fatalf("%s: register %d reads %d, dense merge %d", what, i, got, v)
		}
	}
	if got, sum := m.Sum(), rowSum(want.values); got != sum {
		t.Fatalf("%s: sum %d, dense merge %d", what, got, sum)
	}
	if got, set := m.Nonzero(), rowSet(want.values); got != set {
		t.Fatalf("%s: %d registers set, dense merge %d", what, got, set)
	}
	pop := 0
	for w, word := range m.occ {
		pop += bits.OnesCount64(word)
		if past := 64*w + 64 - int(width); past > 0 && word>>(64-past) != 0 {
			t.Fatalf("%s: bits set past width %d", what, width)
		}
	}
	values := len(m.vals)
	if m.bloom {
		values = m.pop // and a Bloom row holds no values
		if cap(m.vals) != 0 {
			t.Fatalf("%s: a Bloom row holds room for %d values", what, cap(m.vals))
		}
	}
	if pop != values || len(m.occ) != int(width+63)/64 {
		t.Fatalf("%s: %d bits in %d words, %d values", what, pop, len(m.occ), values)
	}
}

// cellsOf packs a contribution the way the decoder hands it over: a
// Count-Min bank's registers, or the bits a Bloom bank with the same
// registers nonzero holds.
func cellsOf(vals []uint32, width int, bloom bool) Cells {
	var c Cells
	if bloom {
		b := modules.BankSnapshot{Kind: modules.BankBloomRow, Width: uint32(width)}
		emptyRegs(&b)
		for i, v := range vals[:min(len(vals), width)] {
			setReg(&b, i, v)
		}
		c.set.packBits(b.Bits, uint32(width))
	} else {
		c.set.pack(vals, uint32(width))
	}
	return c
}

// TestMergedCellsVsDense: at every width the bitmap's word size makes a
// boundary of, every fill (none, one register, all, some), one to four
// contributors, Count-Min and Bloom, one row recycled through them all —
// the merged cells are the dense merge. And a geometry conflict mid-epoch
// — the row reset to another width after some contributors, as
// mergeBankLocked does — starts the row over at the new width.
func TestMergedCellsVsDense(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	var m MergedCells // one row through every shape: what a recycled slot does
	for _, bloom := range []bool{false, true} {
		for _, width := range cellWidths {
			fills := cellFills(rng, width)
			for n := 1; n <= 4; n++ {
				for first := range fills {
					what := fmt.Sprintf("bloom=%v width %d, %d contributors from fill %d", bloom, width, n, first)
					m.Reset(uint32(width), bloom)
					want := &denseRow{bloom: bloom, values: make([]uint64, width)}
					for j := 0; j < n; j++ {
						c := cellsOf(fills[(first+j)%len(fills)], width, bloom)
						m.Merge(c)
						want.merge(c)
						checkMerged(t, fmt.Sprintf("%s, after %d", what, j+1), &m, want)
					}
				}
			}
		}
	}

	for _, from := range cellWidths {
		for _, to := range cellWidths {
			what := fmt.Sprintf("conflict %d -> %d", from, to)
			for _, bloom := range []bool{false, true} {
				m.Reset(uint32(from), !bloom)
				for _, vals := range fullAndSome(cellFills(rng, from)) {
					m.Merge(cellsOf(vals, from, !bloom))
				}
				m.Reset(uint32(to), bloom)
				want := &denseRow{bloom: bloom, values: make([]uint64, to)}
				for _, vals := range fullAndSome(cellFills(rng, to)) {
					c := cellsOf(vals, to, bloom)
					m.Merge(c)
					want.merge(c)
				}
				checkMerged(t, fmt.Sprintf("%s, bloom=%v", what, bloom), &m, want)
			}
		}
	}
}

// fullAndSome is the last two of cellFills: every register set, and
// some (or the one fill of a bank of no registers).
func fullAndSome(fills [][]uint32) [][]uint32 { return fills[max(0, len(fills)-2):] }

// TestMergedCellsSumsDoNotWrap: four switches' full registers sum past
// 32 bits, as the dense uint64 row did.
func TestMergedCellsSumsDoNotWrap(t *testing.T) {
	full := []uint32{0xFFFFFFFF, 0, 0xFFFFFFFF}
	var m MergedCells
	m.Reset(3, false)
	want := &denseRow{values: make([]uint64, 3)}
	for i := 0; i < 4; i++ {
		c := cellsOf(full, 3, false)
		m.Merge(c)
		want.merge(c)
	}
	checkMerged(t, "four full counters", &m, want)
}

// mergedLife drives one row through seeded epochs against the dense
// reference: each epoch a width (kept more often than not, so the row's
// memory is recycled), a kind, one to four contributors of random fill,
// and now and then a geometry conflict mid-epoch.
func mergedLife(t *testing.T, seed int64, widths []byte) {
	rng := rand.New(rand.NewSource(seed))
	var m MergedCells
	width := 64
	pick := func() int {
		if len(widths) > 0 {
			w := int(widths[0]) * 17
			widths = widths[1:]
			return w
		}
		return cellWidths[rng.Intn(len(cellWidths))]
	}
	for epoch := 0; epoch < 12; epoch++ {
		if rng.Intn(3) == 0 {
			width = pick()
		}
		bloom := rng.Intn(2) == 0
		m.Reset(uint32(width), bloom)
		want := &denseRow{bloom: bloom, values: make([]uint64, width)}
		for j, n := 0, 1+rng.Intn(4); j < n; j++ {
			if rng.Intn(8) == 0 { // a second geometry meets this one in the epoch
				width = pick()
				m.Reset(uint32(width), bloom)
				want.values = make([]uint64, width)
			}
			vals := make([]uint32, width)
			density := 1 + rng.Intn(8)
			for i := range vals {
				if rng.Intn(density) == 0 {
					vals[i] = rng.Uint32() >> uint(rng.Intn(32))
				}
			}
			c := cellsOf(vals, width, bloom)
			m.Merge(c)
			want.merge(c)
			checkMerged(t, fmt.Sprintf("seed %d epoch %d contributor %d (width %d, bloom=%v)", seed, epoch, j, width, bloom), &m, want)
		}
	}
}

// FuzzMergedCellsVsDense is the differential oracle for the merged rows
// (the vs-prev idiom: the merge they replaced, on the same input). See
// mergedLife; the bytes pick widths.
func FuzzMergedCellsVsDense(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed, []byte{byte(seed), 4, 0, 255})
	}
	f.Fuzz(func(t *testing.T, seed int64, widths []byte) {
		mergedLife(t, seed, widths)
	})
}

// TestMergedCellsLives runs the oracle over a fixed spread of seeds.
func TestMergedCellsLives(t *testing.T) {
	for seed := int64(0); seed < 100; seed++ {
		mergedLife(t, seed, nil)
	}
}

// TestMergedCellsMemory: a row's values are sized to its population.
// The first allocation is exact; growth is by a quarter but never past
// the width, so a full row holds exactly its width of values; and a
// recycled row whose population stays put merges its epochs in its own
// memory.
func TestMergedCellsMemory(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const width = 4097
	var m MergedCells
	m.Reset(width, false)
	some := make([]uint32, width)
	for j := 0; j < 300; j++ {
		some[rng.Intn(width)] = 1 + uint32(rng.Intn(100))
	}
	m.Merge(cellsOf(some, width, false))
	if cap(m.vals) != m.Nonzero() {
		t.Errorf("first allocation: room for %d values, %d set", cap(m.vals), m.Nonzero())
	}
	for filled := 0; filled < width; {
		vals := make([]uint32, width)
		for j := 0; j < 700 && filled < width; j, filled = j+1, filled+1 {
			vals[filled] = 1
		}
		m.Merge(cellsOf(vals, width, false))
		if cap(m.vals) > width {
			t.Fatalf("%d set: room for %d values in a row of %d registers", m.Nonzero(), cap(m.vals), width)
		}
	}
	if m.Nonzero() != width || m.Bytes() != 8*width+8*((width+63)/64) {
		t.Errorf("a full row holds %d B for %d registers set", m.Bytes(), m.Nonzero())
	}

	contrib := make([]Cells, 4)
	for i := range contrib {
		vals := make([]uint32, width)
		for j := 0; j < 300; j++ {
			vals[rng.Intn(width)] = 1 + uint32(rng.Intn(100))
		}
		contrib[i] = cellsOf(vals, width, false)
	}
	var steady MergedCells
	epoch := func() {
		steady.Reset(width, false)
		for _, c := range contrib {
			steady.Merge(c)
		}
	}
	epoch()
	if n := testing.AllocsPerRun(20, epoch); n != 0 {
		t.Errorf("a steady epoch of the row allocates %v times", n)
	}

	// A Bloom row is its bitmap, full or not, and recycling the row that
	// held counters lets their values go.
	steady.Reset(width, true)
	for i := range contrib {
		contrib[i] = cellsOf(contrib[i].set.dense(width), width, true)
		steady.Merge(contrib[i])
	}
	if words := (width + 63) / 64; steady.Bytes() != 8*words {
		t.Errorf("a Bloom row of %d registers holds %d B, want its %d bitmap words", width, steady.Bytes(), words)
	}
	bloomEpoch := func() {
		steady.Reset(width, true)
		for _, c := range contrib {
			steady.Merge(c)
		}
	}
	if n := testing.AllocsPerRun(20, bloomEpoch); n != 0 {
		t.Errorf("a steady epoch of a Bloom row allocates %v times", n)
	}
}
