package wire

import "math/bits"

// cellSet is one state bank in the form the wire carries it: which
// registers are nonzero, and their values. Both ends of the snapshot
// codec hold their delta bases this way, so what a stream keeps between
// epochs follows the registers the traffic touched, not the width the
// query was installed at: width/8 bytes of bitmap plus 4 bytes a nonzero
// register — at most 1/32 over the dense array, when every register is
// set.
//
// A set is only ever filled in ascending index order and walked in it,
// so the position of a register's value in vals is its rank among the
// set bits of occ, and no operation needs more than a running count.
//
// A Bloom row's registers are bits, so its set is occ alone: vals stays
// empty and every set bit is a register of value 1.
type cellSet struct {
	occ   []uint64 // bit i set ⇔ register i is nonzero; ⌈width/64⌉ words
	vals  []uint32 // the nonzero registers, in index order; none for a Bloom row
	bloom bool
}

// packRoom is how far past the registers it keeps pack may write: it
// stores every register of a 64-register word before it knows which
// ones stay.
const packRoom = 64

// size gives the set an empty population over width registers of a
// Count-Min row (bloom false) or a Bloom row, keeping its memory — but
// a Bloom row's, which keeps no values. The bitmap's contents are
// unspecified: every filler writes each word.
func (s *cellSet) size(width uint32, bloom bool) {
	n := int((uint64(width) + 63) / 64)
	if cap(s.occ) < n {
		s.occ = make([]uint64, n)
	}
	s.occ = s.occ[:n]
	s.vals = s.vals[:0]
	if s.bloom = bloom; bloom {
		s.vals = nil
	}
}

// count is the set's population: its values, or a Bloom row's set bits.
func (s *cellSet) count() int {
	if !s.bloom {
		return len(s.vals)
	}
	n := 0
	for _, w := range s.occ {
		n += bits.OnesCount64(w)
	}
	return n
}

// room makes space for n more registers. A set's first allocation is
// exactly what was asked for — callers know or count the population of
// the first fill — and later ones grow by a quarter, so a bank that
// gains a register an epoch does not reallocate every epoch and one
// that stays put carries no slack.
func (s *cellSet) room(n int) {
	need := len(s.vals) + n
	if need <= cap(s.vals) {
		return
	}
	if c := cap(s.vals); c > 0 {
		need = max(need, c+c/4)
	}
	grown := make([]uint32, len(s.vals), need)
	copy(grown, s.vals)
	s.vals = grown
}

// bytes is the memory the set holds.
func (s *cellSet) bytes() int { return 8*cap(s.occ) + 4*cap(s.vals) }

// packBits fills the set from a Bloom row's bitmap of width registers:
// a copy of the words. Bits past width are cut (the decoder would refuse
// their indexes); a short bitmap reads as zero-padded.
func (s *cellSet) packBits(words []uint64, width uint32) {
	s.size(width, true)
	clear(s.occ[copy(s.occ, words):])
	if tail := width % 64; tail != 0 {
		s.occ[len(s.occ)-1] &= 1<<tail - 1
	}
}

// pack fills the set from a dense Count-Min bank of width registers in
// one pass. Values past width are cut (the decoder would refuse their
// indexes); a short slice reads as zero-padded.
func (s *cellSet) pack(values []uint32, width uint32) {
	if uint64(len(values)) > uint64(width) {
		values = values[:width]
	}
	s.size(width, false)
	if s.vals == nil {
		n := 0
		for _, v := range values {
			if v != 0 {
				n++
			}
		}
		s.vals = make([]uint32, 0, n+packRoom)
	}
	k := 0
	for w := range s.occ {
		word := values[min(w*64, len(values)):min(w*64+64, len(values))]
		// Most words of most banks are empty: find that out eight
		// registers at a time.
		var seen uint32
		scan := word
		for ; len(scan) >= 8; scan = scan[8:] {
			seen |= scan[0] | scan[1] | scan[2] | scan[3] | scan[4] | scan[5] | scan[6] | scan[7]
		}
		for _, v := range scan {
			seen |= v
		}
		if seen == 0 {
			s.occ[w] = 0
			continue
		}
		if cap(s.vals)-k < packRoom {
			s.vals = s.vals[:k]
			s.room(packRoom)
		}
		// Every register is stored at the next free position and the
		// position moves on only past a nonzero one: no branch to
		// mispredict on a half-full bank.
		dst := s.vals[k : k+packRoom : k+packRoom]
		var occ uint64
		n := 0
		for j, v := range word {
			dst[n&(packRoom-1)] = v
			var set uint64
			if v != 0 {
				set = 1
			}
			occ |= set << uint(j)
			n += int(set)
		}
		s.occ[w] = occ
		k += n
	}
	s.vals = s.vals[:k]
}

// Cells is one decoded bank's nonzero registers: what the analyzer
// merges. It is a view of the decoder's memory, valid until the next
// Decode on the stream it came from.
type Cells struct {
	set cellSet
}

// MergedCells is a network-wide merged row in the form the cells come
// in: an occupancy bitmap over the row's width and the nonzero merged
// values in index order, uint64 so that sums over many switches cannot
// wrap the registers' 32 bits. It holds width/8 bytes plus 8 a nonzero
// value — a full row at most 1/64 over the dense []uint64 it replaces.
// A merged Bloom row is its bitmap alone: width/8 bytes.
type MergedCells struct {
	occ   []uint64 // bit i set ⇔ merged register i is nonzero
	vals  []uint64 // none for a Bloom row
	width uint32
	bloom bool
	pop   int // a Bloom row's set bits
}

// Reset empties the row over width registers of a Count-Min row (bloom
// false) or a Bloom row, keeping its memory — but a Bloom row's, which
// keeps no values: a bitmap to clear, not the width.
func (m *MergedCells) Reset(width uint32, bloom bool) {
	n := int((uint64(width) + 63) / 64)
	if cap(m.occ) < n {
		m.occ = make([]uint64, n)
	}
	m.occ = m.occ[:n]
	clear(m.occ)
	m.vals = m.vals[:0]
	if bloom {
		m.vals = nil
	}
	m.width, m.bloom, m.pop = width, bloom, 0
}

// Merge folds one bank's cells into the row, which must have been Reset
// to the bank's width and kind: Count-Min rows add counter-wise, Bloom
// rows OR their words. It costs the row's words and the two populations,
// never the width.
//
// The merge is in place, from the top down: a value's merged rank is at
// least its old rank, so each lands at or above where it was read from,
// and nothing is overwritten before it is read. The value array grows
// only when the merged population passes its capacity: exactly to the
// population the first time, by a quarter (never past the width) after,
// so a row that stays put allocates nothing from epoch to epoch.
func (m *MergedCells) Merge(c Cells) {
	occ, from := c.set.occ, c.set.vals
	if m.bloom {
		for w, cw := range occ {
			m.pop += bits.OnesCount64(cw &^ m.occ[w])
			m.occ[w] |= cw
		}
		return
	}
	pop := len(m.vals)
	for w, cw := range occ {
		pop += bits.OnesCount64(cw &^ m.occ[w])
	}
	if have := cap(m.vals); pop > have {
		size := pop
		if have > 0 {
			size = min(max(pop, have+have/4), int(m.width))
		}
		grown := make([]uint64, len(m.vals), size)
		copy(grown, m.vals)
		m.vals = grown
	}
	// Going down: the row's values not yet moved are vals[:read], c's not
	// yet merged from[:k], and the merged ones fill vals[put:].
	vals := m.vals[:pop]
	read, k, put := len(m.vals), len(from), pop
	for w := len(occ) - 1; k > 0; w-- {
		mw, cw := m.occ[w], occ[w]
		if cw == 0 { // the word's values only move up
			n := bits.OnesCount64(mw)
			copy(vals[put-n:put], vals[read-n:read])
			put, read = put-n, read-n
			continue
		}
		for either := mw | cw; either != 0; {
			bit := uint64(1) << (63 - bits.LeadingZeros64(either))
			either &^= bit
			var v uint64
			if mw&bit != 0 {
				read--
				v = vals[read]
			}
			if cw&bit != 0 {
				k--
				v += uint64(from[k])
			}
			put--
			vals[put] = v
		}
		m.occ[w] = mw | cw
	}
	m.vals = vals
}

// At reads merged register i by rank: zero when its bit is clear, else
// the value as many places in as there are set bits below it — or, in
// a Bloom row, 1.
func (m *MergedCells) At(i uint32) uint64 {
	w, bit := i/64, uint64(1)<<(i%64)
	if m.occ[w]&bit == 0 {
		return 0
	}
	if m.bloom {
		return 1
	}
	rank := bits.OnesCount64(m.occ[w] & (bit - 1))
	for _, word := range m.occ[:w] {
		rank += bits.OnesCount64(word)
	}
	return m.vals[rank]
}

// Sum is the row's counter total: a Bloom row's set bits.
func (m *MergedCells) Sum() (sum uint64) {
	if m.bloom {
		return uint64(m.pop)
	}
	for _, v := range m.vals {
		sum += v
	}
	return sum
}

// Nonzero counts the row's set registers.
func (m *MergedCells) Nonzero() int {
	if m.bloom {
		return m.pop
	}
	return len(m.vals)
}

// Dense lays the row out at its width in a fresh slice, a Bloom row's
// set bits as 1s.
func (m *MergedCells) Dense() []uint64 {
	out := make([]uint64, m.width)
	k := 0
	for w, word := range m.occ {
		for ; word != 0; word &= word - 1 {
			v := uint64(1)
			if !m.bloom {
				v = m.vals[k]
			}
			out[w*64+bits.TrailingZeros64(word)] = v
			k++
		}
	}
	return out
}

// Bytes is the memory the row holds.
func (m *MergedCells) Bytes() int { return 8 * (cap(m.occ) + cap(m.vals)) }
