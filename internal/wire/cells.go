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
type cellSet struct {
	occ  []uint64 // bit i set ⇔ register i is nonzero; ⌈width/64⌉ words
	vals []uint32 // the nonzero registers, in index order
}

// packRoom is how far past the registers it keeps pack may write: it
// stores every register of a 64-register word before it knows which
// ones stay.
const packRoom = 64

// size gives the set an empty population over width registers, keeping
// its memory. The bitmap's contents are unspecified: every filler
// writes each word.
func (s *cellSet) size(width uint32) {
	n := int((uint64(width) + 63) / 64)
	if cap(s.occ) < n {
		s.occ = make([]uint64, n)
	}
	s.occ = s.occ[:n]
	s.vals = s.vals[:0]
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

// pack fills the set from a dense bank of width registers in one pass.
// Values past width are cut (the decoder would refuse their indexes);
// a short slice reads as zero-padded.
func (s *cellSet) pack(values []uint32, width uint32) {
	if uint64(len(values)) > uint64(width) {
		values = values[:width]
	}
	s.size(width)
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

// OrInto ORs each register into its word in dst, which must span the
// bank's width: the Bloom merge.
func (c Cells) OrInto(dst []uint64) {
	k := 0
	for w, word := range c.set.occ {
		for ; word != 0; word &= word - 1 {
			dst[w*64+bits.TrailingZeros64(word)] |= uint64(c.set.vals[k])
			k++
		}
	}
}
