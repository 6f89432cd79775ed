package wire

import (
	"bytes"
	"errors"
	"math/bits"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"github.com/newton-net/newton/internal/modules"
)

// cellWidths straddle the bitmap's word size; cellFills are the
// populations a set must get right at each: none, one register (first,
// last, or in the middle), every register, and something in between.
var cellWidths = []int{0, 1, 63, 64, 65, 4096}

func cellFills(rng *rand.Rand, width int) [][]uint32 {
	if width == 0 {
		return [][]uint32{{}}
	}
	one := func(at int) []uint32 {
		v := make([]uint32, width)
		v[at] = 1 + rng.Uint32()>>1
		return v
	}
	all, some := make([]uint32, width), make([]uint32, width)
	for i := range all {
		all[i] = 1 + rng.Uint32()>>1
		if rng.Intn(3) == 0 {
			some[i] = 1 + uint32(rng.Intn(1<<10))
		}
	}
	return [][]uint32{make([]uint32, width), one(0), one(width - 1), one(width / 2), all, some}
}

// checkSet holds a set to its invariants against the dense bank it
// stands for: one bit per nonzero register and none past the width,
// values in index order — or, for a Bloom row's set, no values and a
// register of 1 where want is nonzero.
func checkSet(t *testing.T, s *cellSet, want []uint32, width int) {
	t.Helper()
	if len(s.occ) != (width+63)/64 {
		t.Fatalf("width %d: %d bitmap words", width, len(s.occ))
	}
	pop := 0
	for w, word := range s.occ {
		pop += bits.OnesCount64(word)
		if past := 64*w + 64 - width; past > 0 && word>>(64-past) != 0 {
			t.Fatalf("width %d: bits set past the width", width)
		}
	}
	nonzero := 0
	for _, v := range want {
		if v != 0 {
			nonzero++
		}
	}
	values := len(s.vals)
	if s.bloom {
		if cap(s.vals) != 0 {
			t.Fatalf("width %d: a Bloom row's set holds room for %d values", width, cap(s.vals))
		}
		values = s.count()
	}
	if pop != nonzero || values != nonzero {
		t.Fatalf("width %d: %d bits, %d values, want %d of each", width, pop, values, nonzero)
	}
	got := s.dense(uint32(width))
	for i := range got {
		w := uint32(0)
		if i < len(want) {
			w = want[i]
		}
		if s.bloom && w != 0 {
			w = 1
		}
		if got[i] != w {
			t.Fatalf("width %d register %d: %d, want %d", width, i, got[i], w)
		}
	}
}

func TestCellSetPack(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var s cellSet // one set through every shape and kind: what a rewidened or reinstalled bank does to it
	for _, width := range cellWidths {
		for _, vals := range cellFills(rng, width) {
			s.pack(vals, uint32(width))
			checkSet(t, &s, vals, width)
			if width > 1 {
				s.pack(vals[:width/2], uint32(width)) // short: reads zero-padded
				checkSet(t, &s, vals[:width/2], width)
			}
			long := append(slices.Clone(vals), 7, 7, 7) // long: cut at the width
			s.pack(long, uint32(width))
			checkSet(t, &s, vals, width)

			// The same registers as a Bloom row's bits.
			b := modules.BankSnapshot{Kind: modules.BankBloomRow, Width: uint32(width)}
			emptyRegs(&b)
			for i, v := range vals {
				setReg(&b, i, v)
			}
			s.packBits(b.Bits, uint32(width))
			checkSet(t, &s, vals, width)
			if len(b.Bits) > 1 {
				s.packBits(b.Bits[:len(b.Bits)/2], uint32(width)) // short: reads zero-padded
				checkSet(t, &s, vals[:len(b.Bits)/2*64], width)
			}
			longBits := append(slices.Clone(b.Bits), ^uint64(0), 5) // long: cut at the width
			if tail := width % 64; tail != 0 {
				longBits[len(b.Bits)-1] |= ^uint64(0) << tail // and bits past it in the last word
			}
			s.packBits(longBits, uint32(width))
			checkSet(t, &s, vals, width)
		}
	}
}

// TestCellsMergeMatchesDense: adding a Count-Min bank's cells, or ORing
// a Bloom bank's, into a merged row is what adding its dense registers,
// or ORing in a 1 at each that is set, was.
func TestCellsMergeMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, width := range cellWidths {
		for _, vals := range cellFills(rng, width) {
			c, bloom := cellsOf(vals, width, false), cellsOf(vals, width, true)
			add, or := make([]uint64, width), make([]uint64, width)
			wantAdd, wantOr := make([]uint64, width), make([]uint64, width)
			for i := range add {
				seed := uint64(rng.Intn(1 << 20))
				add[i], or[i] = seed, seed
				wantAdd[i], wantOr[i] = seed+uint64(vals[i]), seed
				if vals[i] != 0 {
					wantOr[i] |= 1
				}
			}
			c.AddTo(add)
			bloom.OrInto(or)
			if !slices.Equal(add, wantAdd) || !slices.Equal(or, wantOr) {
				t.Fatalf("width %d: merge of %d cells differs from the dense merge", width, len(c.set.vals))
			}
		}
	}
}

// TestCodecAtWordBoundaries takes a bank at every width from every fill
// to every other through one encoder and decoder, of each kind — a
// Bloom bank as the engine holds it, its bits, with the registers of the
// fill that are set — : the frames are the dense reference's byte for
// byte, and the decoded registers are what went in.
func TestCodecAtWordBoundaries(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, kind := range []modules.BankKind{modules.BankCMSRow, modules.BankBloomRow} {
		for _, width := range cellWidths {
			fills := cellFills(rng, width)
			if width == 0 {
				continue // no register for a key: TestSnapshotRefusesUnslottableBanks
			}
			enc, ref := &SnapshotEncoder{KeyframeEvery: 1 << 20}, &denseEncoder{KeyframeEvery: 1 << 20}
			var dec SnapshotDecoder
			epoch := uint32(0)
			for _, from := range fills {
				for _, to := range fills {
					for _, vals := range [][]uint32{from, to} {
						epoch++
						banks := []modules.BankSnapshot{{QueryID: 1, Kind: kind, Width: uint32(width)}}
						emptyRegs(&banks[0])
						for i, v := range vals {
							setReg(&banks[0], i, v)
						}
						payload, flags := enc.Encode(nil, epoch, banks)
						want, wantFlags := ref.Encode(nil, epoch, denseView(banks))
						if !bytes.Equal(payload, want) || flags != wantFlags {
							t.Fatalf("kind %d width %d epoch %d: frame differs from the dense encoder's", kind, width, epoch)
						}
						_, got, err := dec.Decode(payload)
						if err != nil {
							t.Fatalf("kind %d width %d epoch %d: %v", kind, width, epoch, err)
						}
						c := dec.Cells(0)
						checkSet(t, &c.set, vals, width)
						checkBanksEqual(t, banks, decoded(&dec, got))
					}
				}
			}
		}
	}
}

// emptyBanksPayload is a keyframe of n banks that declare width and
// carry no cells.
func emptyBanksPayload(n int, width uint32) []byte {
	p := []byte{1, 0, byte(n)} // epoch 1, keyframe, n banks (n < 128)
	for i := 0; i < n; i++ {
		p = appendBankHeader(p, &modules.BankSnapshot{QueryID: 1, Row: i, Kind: modules.BankCMSRow, Width: width})
		p = append(p, encFull, 0)
	}
	return p
}

// TestSnapshotFrameWidthBudget: a bank costs its receiver memory by its
// declared width before a cell is read, so a frame's widths are bounded
// in sum. A kilobyte naming 64 empty banks of the widest width is
// refused (the decoder that sized a dense array per bank allocated
// 512 MB for it); a frame at the budget decodes, for the price of its
// bitmaps.
func TestSnapshotFrameWidthBudget(t *testing.T) {
	const widest = MaxFrame / 4
	alloc := func(f func()) uint64 {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		f()
		runtime.ReadMemStats(&m1)
		return m1.TotalAlloc - m0.TotalAlloc
	}

	hostile := emptyBanksPayload(64, widest)
	var err error
	grew := alloc(func() { _, _, err = new(SnapshotDecoder).Decode(hostile) })
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("%d-byte frame declaring %d registers: %v, want ErrTooLarge", len(hostile), 64*widest, err)
	}
	if grew > 2<<20 {
		t.Errorf("refusing it allocated %d B", grew)
	}

	var dec SnapshotDecoder
	var got []modules.BankSnapshot
	atBudget := emptyBanksPayload(MaxFrameRegisters/widest, widest)
	grew = alloc(func() { _, got, err = dec.Decode(atBudget) })
	if err != nil || len(got) != MaxFrameRegisters/widest {
		t.Fatalf("frame at the budget: %d banks, %v", len(got), err)
	}
	if grew > 2<<20 {
		t.Errorf("decoding %d empty registers allocated %d B, want their bitmaps' %d", MaxFrameRegisters, grew, MaxFrameRegisters/8)
	}

	if err := CheckSnapshot(got); err != nil {
		t.Errorf("CheckSnapshot at the budget: %v", err)
	}
	if err := CheckSnapshot(append(got, modules.BankSnapshot{Width: 1})); !errors.Is(err, ErrTooLarge) {
		t.Errorf("CheckSnapshot one register past the budget: %v", err)
	}
	if err := CheckSnapshot([]modules.BankSnapshot{{Width: widest + 1}}); !errors.Is(err, ErrTooLarge) {
		t.Errorf("CheckSnapshot of a bank wider than a frame: %v", err)
	}
}
