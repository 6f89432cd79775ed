package wire

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
)

// The inflater is a one-shot RFC 1951 decoder over a payload already in
// memory. Its Huffman tables are fixed-size arrays it keeps, so a stream
// that inflates every frame allocates nothing once its output buffer has
// grown to the largest frame. It accepts and refuses exactly what
// compress/flate's reader does (TestInflateMatchesStdlib, FuzzInflate
// hold it to that) and, like it, ignores bytes after the final block.

const (
	maxCodeBits = 15  // the longest deflate code
	directBits  = 9   // codes this short decode with one table read
	numLitLen   = 288 // lit/len symbols a fixed block's code has
	maxLitLen   = 286 // lit/len symbols a dynamic block may declare
	numDist     = 32  // distance symbols a fixed block's code has
	maxDist     = 30  // distance symbols a dynamic block may declare
	numCodeLen  = 19  // code-length alphabet
	endOfBlock  = 256
)

// longCode marks a direct-table slot whose 9 bits begin a longer code.
const longCode = 1 << 15

// A huffman is one canonical prefix code. direct maps the next 9 input
// bits to sym<<4|length for codes of at most 9 bits, to longCode where
// those bits begin a longer code, and to 0 where no code begins with
// them (only in the empty code and the lone 1-bit code). Longer codes
// are walked one bit at a time over first, count and syms.
type huffman struct {
	direct [1 << directBits]uint16
	first  [maxCodeBits + 1]uint16 // the first code of each length
	count  [maxCodeBits + 1]uint16 // codes of each length
	offs   [maxCodeBits + 1]uint16 // syms index of each length's first code
	syms   [numLitLen]uint16       // symbols in canonical code order
}

// build makes h the code with the given code lengths. It refuses, as
// compress/flate does, a code that is over-subscribed or incomplete,
// except the lone 1-bit code; a code with no lengths builds, and every
// read from it fails.
func (h *huffman) build(lengths []uint8) bool {
	var count [maxCodeBits + 1]int
	longest := 0
	for _, n := range lengths {
		count[n]++
		longest = max(longest, int(n))
	}
	clear(h.direct[:])
	if longest == 0 {
		return true
	}
	var next [maxCodeBits + 1]int
	code, offs := 0, 0
	for n := 1; n <= maxCodeBits; n++ {
		code <<= 1
		next[n] = code
		h.first[n], h.count[n], h.offs[n] = uint16(code), uint16(count[n]), uint16(offs)
		code += count[n]
		offs += count[n]
	}
	if code != 1<<maxCodeBits && !(code == 1<<(maxCodeBits-1) && longest == 1) {
		return false
	}
	for sym, n := range lengths {
		if n == 0 {
			continue
		}
		c := next[n]
		next[n]++
		h.syms[int(h.offs[n])+c-int(h.first[n])] = uint16(sym)
		if n <= directBits {
			entry := uint16(sym)<<4 | uint16(n)
			for i := reverse(c, int(n)); i < len(h.direct); i += 1 << n {
				h.direct[i] = entry
			}
			continue
		}
		h.direct[reverse(c>>(n-directBits), directBits)] = longCode
	}
	return true
}

// reverse is the low n bits of c in reverse order: deflate packs a
// code's first bit into the lowest bit it has not used yet.
func reverse(c, n int) int { return int(bits.Reverse16(uint16(c)) >> (16 - n)) }

// Length and distance bases and extra-bit counts, RFC 1951 §3.2.5.
var (
	lengthBase = [29]uint16{3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 23, 27, 31,
		35, 43, 51, 59, 67, 83, 99, 115, 131, 163, 195, 227, 258}
	lengthExtra = [29]uint8{0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2,
		3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0}
	distBase = [maxDist]uint16{1, 2, 3, 4, 5, 7, 9, 13, 17, 25, 33, 49, 65, 97, 129, 193,
		257, 385, 513, 769, 1025, 1537, 2049, 3073, 4097, 6145, 8193, 12289, 16385, 24577}
	distExtra = [maxDist]uint8{0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6,
		7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13, 13}
)

// The order a dynamic block lists its code-length code's lengths in.
var codeLenOrder = [numCodeLen]uint8{16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15}

// The fixed block's codes, RFC 1951 §3.2.6. Both are complete: the
// lit/len symbols 286 and 287 and the distance symbols 30 and 31 decode
// and are refused where they are used, as compress/flate refuses them.
var fixedLitLen, fixedDist huffman

func init() {
	fixedLitLen.build(fixedLengths())
	fives := make([]uint8, numDist)
	for i := range fives {
		fives[i] = 5
	}
	fixedDist.build(fives)
}

// fixedLengths are the fixed block's lit/len code lengths.
func fixedLengths() []uint8 {
	l := make([]uint8, numLitLen)
	for i := range l {
		switch {
		case i < 144:
			l[i] = 8
		case i < 256:
			l[i] = 9
		case i < 280:
			l[i] = 7
		default:
			l[i] = 8
		}
	}
	return l
}

// The inflater's refusals. A stream that ends early is malformed like
// any other: the frame's CRC has already vouched for its bytes.
var (
	errInflateTooLarge  = fmt.Errorf("%w: decompressed payload exceeds %d bytes", ErrTooLarge, MaxFrame)
	errInflateTruncated = fmt.Errorf("%w: deflate stream ends early", ErrMalformed)
	errInflateBlockType = fmt.Errorf("%w: deflate block type 3", ErrMalformed)
	errInflateStoredLen = fmt.Errorf("%w: deflate stored block length check", ErrMalformed)
	errInflateCounts    = fmt.Errorf("%w: deflate code counts out of range", ErrMalformed)
	errInflateCode      = fmt.Errorf("%w: deflate code incomplete or over-subscribed", ErrMalformed)
	errInflateRepeat    = fmt.Errorf("%w: deflate code-length repeat out of range", ErrMalformed)
	errInflateSymbol    = fmt.Errorf("%w: deflate symbol not in use", ErrMalformed)
	errInflateDistance  = fmt.Errorf("%w: deflate distance past the output", ErrMalformed)
)

// inflater decodes deflate streams. It is one stream's: the tables of
// the dynamic block being decoded are its own and kept between frames.
type inflater struct {
	in  []byte
	pos int    // next byte of in not yet in b
	b   uint64 // bits read ahead, lowest first
	nb  uint   // how many of b's bits are input

	lit, dist, codeLen huffman
	lengths            [maxLitLen + maxDist]uint8
}

// inflate decodes the deflate stream src into buf's memory, grown as
// needed, and returns the output; buf's contents are not kept. On a
// refusal the returned slice still holds buf's memory, for the next
// frame. Output past MaxFrame is ErrTooLarge, any other refusal
// ErrMalformed.
func (z *inflater) inflate(buf, src []byte) ([]byte, error) {
	z.in, z.pos, z.b, z.nb = src, 0, 0, 0
	out := buf[:0]
	for {
		if !z.need(3) {
			return out, errInflateTruncated
		}
		final := z.b&1 == 1
		typ := z.b >> 1 & 3
		z.drop(3)
		var err error
		switch typ {
		case 0:
			out, err = z.stored(out)
		case 1:
			out, err = z.codes(out, &fixedLitLen, &fixedDist)
		case 2:
			if err = z.dynamic(); err == nil {
				out, err = z.codes(out, &z.lit, &z.dist)
			}
		default:
			err = errInflateBlockType
		}
		if err != nil || final {
			return out, err
		}
	}
}

// refill reads ahead until b holds at least 56 bits or the input ends.
// Bits above nb are zero or the input's next bits, so a later refill
// may OR the same bytes in again.
func (z *inflater) refill() {
	if z.pos+8 <= len(z.in) {
		z.b |= binary.LittleEndian.Uint64(z.in[z.pos:]) << z.nb
		z.pos += int(63-z.nb) >> 3
		z.nb |= 56
		return
	}
	for z.nb <= 56 && z.pos < len(z.in) {
		z.b |= uint64(z.in[z.pos]) << z.nb
		z.pos++
		z.nb += 8
	}
}

// need reports whether n bits are there to read.
func (z *inflater) need(n uint) bool {
	if z.nb < n {
		z.refill()
	}
	return z.nb >= n
}

func (z *inflater) drop(n uint) {
	z.b >>= n
	z.nb -= n
}

// take reads n bits, n ≤ 16; need(n) must have held.
func (z *inflater) take(n uint) int {
	v := int(z.b & (1<<n - 1))
	z.drop(n)
	return v
}

// decode reads one symbol of h.
func (z *inflater) decode(h *huffman) (int, error) {
	if z.nb < maxCodeBits {
		z.refill()
	}
	e := h.direct[z.b&(1<<directBits-1)]
	if e&longCode == 0 {
		n := uint(e & 15)
		if n == 0 {
			return 0, errInflateSymbol
		}
		if n > z.nb {
			return 0, errInflateTruncated
		}
		z.drop(n)
		return int(e >> 4), nil
	}
	code := reverse(int(z.b), directBits)
	for n := uint(directBits + 1); n <= maxCodeBits; n++ {
		code = code<<1 | int(z.b>>(n-1)&1)
		if rank := code - int(h.first[n]); uint(rank) < uint(h.count[n]) {
			if n > z.nb {
				return 0, errInflateTruncated
			}
			z.drop(n)
			return int(h.syms[int(h.offs[n])+rank]), nil
		}
	}
	return 0, errInflateSymbol // unreachable: a built code is complete
}

// stored copies a stored block's bytes to out.
func (z *inflater) stored(out []byte) ([]byte, error) {
	// Skip to the byte boundary and hand the whole bytes read ahead back.
	z.drop(z.nb & 7)
	z.pos -= int(z.nb >> 3)
	z.b, z.nb = 0, 0
	if len(z.in)-z.pos < 4 {
		return out, errInflateTruncated
	}
	n := int(binary.LittleEndian.Uint16(z.in[z.pos:]))
	if uint16(n) != ^binary.LittleEndian.Uint16(z.in[z.pos+2:]) {
		return out, errInflateStoredLen
	}
	z.pos += 4
	data := z.in[z.pos:min(z.pos+n, len(z.in))]
	if len(out)+len(data) > MaxFrame {
		return out, errInflateTooLarge
	}
	out = append(out, data...)
	z.pos += len(data)
	if len(data) < n {
		return out, errInflateTruncated
	}
	return out, nil
}

// dynamic reads a dynamic block's header into the lit/len and distance
// codes, RFC 1951 §3.2.7.
func (z *inflater) dynamic() error {
	if !z.need(14) {
		return errInflateTruncated
	}
	nlit := z.take(5) + 257
	ndist := z.take(5) + 1
	nclen := z.take(4) + 4
	if nlit > maxLitLen || ndist > maxDist {
		return errInflateCounts
	}
	var clens [numCodeLen]uint8
	for _, sym := range codeLenOrder[:nclen] {
		if !z.need(3) {
			return errInflateTruncated
		}
		clens[sym] = uint8(z.take(3))
	}
	if !z.codeLen.build(clens[:]) {
		return errInflateCode
	}
	lengths := z.lengths[:nlit+ndist]
	for i := 0; i < len(lengths); {
		sym, err := z.decode(&z.codeLen)
		if err != nil {
			return err
		}
		if sym < 16 {
			lengths[i] = uint8(sym)
			i++
			continue
		}
		var rep int
		var fill uint8
		switch sym {
		case 16:
			if i == 0 {
				return errInflateRepeat
			}
			if !z.need(2) {
				return errInflateTruncated
			}
			rep, fill = 3+z.take(2), lengths[i-1]
		case 17:
			if !z.need(3) {
				return errInflateTruncated
			}
			rep = 3 + z.take(3)
		default:
			if !z.need(7) {
				return errInflateTruncated
			}
			rep = 11 + z.take(7)
		}
		if i+rep > len(lengths) {
			return errInflateRepeat
		}
		for end := i + rep; i < end; i++ {
			lengths[i] = fill
		}
	}
	if !z.lit.build(lengths[:nlit]) || !z.dist.build(lengths[nlit:]) {
		return errInflateCode
	}
	return nil
}

// codes decodes one Huffman-coded block's symbols onto out.
func (z *inflater) codes(out []byte, lit, dist *huffman) ([]byte, error) {
	for {
		sym, err := z.decode(lit)
		if err != nil {
			return out, err
		}
		if sym < endOfBlock {
			if len(out) == MaxFrame {
				return out, errInflateTooLarge
			}
			out = append(out, byte(sym))
			continue
		}
		if sym == endOfBlock {
			return out, nil
		}
		sym -= endOfBlock + 1
		if sym >= len(lengthBase) {
			return out, errInflateSymbol
		}
		extra := uint(lengthExtra[sym])
		if !z.need(extra) {
			return out, errInflateTruncated
		}
		length := int(lengthBase[sym]) + z.take(extra)

		if sym, err = z.decode(dist); err != nil {
			return out, err
		}
		if sym >= maxDist {
			return out, errInflateSymbol
		}
		extra = uint(distExtra[sym])
		if !z.need(extra) {
			return out, errInflateTruncated
		}
		d := int(distBase[sym]) + z.take(extra)
		if d > len(out) {
			return out, errInflateDistance
		}
		if len(out)+length > MaxFrame {
			return out, errInflateTooLarge
		}
		n := len(out)
		out = slices.Grow(out, length)[:n+length]
		// Each copy doubles the repeated run, so an overlapping match
		// takes log(length/d) copies.
		for src, end := n-d, n+length; n < end; {
			n += copy(out[n:end], out[src:n])
		}
	}
}
