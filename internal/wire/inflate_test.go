package wire

import (
	"bytes"
	"compress/flate"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"testing"
)

// stdInflater is the decoder the inflater replaced: compress/flate's
// reader, re-targeted with flate.Resetter, reading into a buffer grown
// as needed and refusing output past MaxFrame. It is the oracle the
// inflater must agree with byte for byte and refusal for refusal.
type stdInflater struct {
	zr  io.ReadCloser
	src bytes.Reader
}

func (s *stdInflater) inflate(buf, payload []byte) ([]byte, error) {
	if s.zr == nil {
		s.zr = flate.NewReader(nil)
	}
	s.src.Reset(payload)
	if err := s.zr.(flate.Resetter).Reset(&s.src, nil); err != nil {
		return buf[:0], fmt.Errorf("%w: %v", ErrMalformed, err)
	}
	out := buf[:0]
	for {
		if len(out) == cap(out) {
			out = append(out, 0)[:len(out)]
		}
		n, err := s.zr.Read(out[len(out):cap(out)])
		out = out[:len(out)+n]
		if len(out) > MaxFrame {
			return out, fmt.Errorf("%w: decompressed payload exceeds %d bytes", ErrTooLarge, MaxFrame)
		}
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, fmt.Errorf("%w: %v", ErrMalformed, err)
		}
	}
}

// inflatePair runs both decoders on the same streams.
type inflatePair struct {
	z        inflater
	std      stdInflater
	got, ref []byte
}

// refusalClass names the sentinel a refusal wraps, or "" for none of
// the two an inflate may return.
func refusalClass(err error) string {
	switch {
	case errors.Is(err, ErrTooLarge):
		return "too large"
	case errors.Is(err, ErrMalformed):
		return "malformed"
	}
	return ""
}

// check decodes src with both and says how they differ, if they do: the
// same output bytes, or both refusing with the same typed error.
func (p *inflatePair) check(src []byte) error {
	var gotErr, refErr error
	p.got, gotErr = p.z.inflate(p.got, src)
	p.ref, refErr = p.std.inflate(p.ref, src)
	switch {
	case gotErr != nil && refusalClass(gotErr) == "":
		return fmt.Errorf("untyped refusal %v", gotErr)
	case (gotErr == nil) != (refErr == nil):
		return fmt.Errorf("inflater says %v, compress/flate says %v", gotErr, refErr)
	case gotErr != nil && refusalClass(gotErr) != refusalClass(refErr):
		return fmt.Errorf("inflater refuses with %v, compress/flate with %v", gotErr, refErr)
	case gotErr == nil && !bytes.Equal(p.got, p.ref):
		return fmt.Errorf("inflater gives %d bytes, compress/flate %d, differing", len(p.got), len(p.ref))
	}
	return nil
}

// deflateAt compresses payload at level, with a Flush after each of
// cuts (the writer's sync marker starts a new block).
func deflateAt(payload []byte, level int, cuts ...int) []byte {
	var out bytes.Buffer
	zw, err := flate.NewWriter(&out, level)
	if err != nil {
		panic(err)
	}
	at := 0
	for _, c := range cuts {
		zw.Write(payload[at:c])
		zw.Flush()
		at = c
	}
	zw.Write(payload[at:])
	zw.Close()
	return out.Bytes()
}

// inflatePayload is a seeded payload of one of several shapes: the
// stream's own report and snapshot frames, repetitive and random bytes,
// and the empty payload.
func inflatePayload(rng *rand.Rand) []byte {
	switch rng.Intn(6) {
	case 0:
		return AppendReports(nil, "s1", streamReports(rng, 1+rng.Intn(300)))
	case 1:
		var enc SnapshotEncoder
		payload, _ := enc.Encode(nil, uint32(rng.Intn(100)), genBanks(rng, 1+rng.Intn(4), 64<<rng.Intn(4)))
		return payload
	case 2: // a few words, repeated at short and long distances
		words := make([][]byte, 1+rng.Intn(8))
		for i := range words {
			words[i] = make([]byte, 1+rng.Intn(12))
			rng.Read(words[i])
		}
		var b []byte
		for n := rng.Intn(40000); len(b) < n; {
			b = append(b, words[rng.Intn(len(words))]...)
		}
		return b
	case 3:
		b := make([]byte, rng.Intn(5000))
		rng.Read(b)
		return b
	case 4: // a run of one byte: one literal and a chain of 258-byte matches
		return bytes.Repeat([]byte{byte(rng.Intn(256))}, rng.Intn(70000))
	}
	return nil
}

// mutants are a stream's truncations and single bit flips.
func mutants(rng *rand.Rand, s []byte, n int) [][]byte {
	var out [][]byte
	if len(s) == 0 {
		return out
	}
	for _, cut := range []int{0, len(s) / 2, len(s) - 1} {
		out = append(out, s[:cut])
	}
	for i := 0; i < n; i++ {
		m := bytes.Clone(s)
		if i%4 == 0 {
			m = m[:rng.Intn(len(m))]
			if len(m) == 0 {
				continue
			}
		}
		m[rng.Intn(len(m))] ^= 1 << rng.Intn(8)
		out = append(out, m)
	}
	return out
}

// bitWriter packs a hand-made deflate stream, lowest bit first.
type bitWriter struct {
	out []byte
	acc uint64
	n   uint
}

func (w *bitWriter) bits(v int, n uint) *bitWriter {
	w.acc |= uint64(v) << w.n
	for w.n += n; w.n >= 8; w.n -= 8 {
		w.out = append(w.out, byte(w.acc))
		w.acc >>= 8
	}
	return w
}

// code writes a Huffman code, first bit first.
func (w *bitWriter) code(c, n int) *bitWriter { return w.bits(reverse(c, n), uint(n)) }

// raw pads to the byte boundary and appends bytes as they are.
func (w *bitWriter) raw(b ...byte) *bitWriter {
	if w.n > 0 {
		w.bits(0, 8-w.n)
	}
	w.out = append(w.out, b...)
	return w
}

func (w *bitWriter) bytes() []byte {
	if w.n > 0 {
		return append(bytes.Clone(w.out), byte(w.acc))
	}
	return w.out
}

// canonical is the code each symbol of lengths gets, RFC 1951 §3.2.2.
func canonical(lengths []uint8) []int {
	var count, next [maxCodeBits + 2]int
	for _, n := range lengths {
		count[n]++
	}
	count[0] = 0
	for n, code := 1, 0; n <= maxCodeBits+1; n++ {
		code = (code + count[n-1]) << 1
		next[n] = code
	}
	codes := make([]int, len(lengths))
	for s, n := range lengths {
		if n > 0 {
			codes[s] = next[n]
			next[n]++
		}
	}
	return codes
}

// fixedBlock starts a fixed block and returns a writer of its lit/len
// symbols.
func fixedBlock(w *bitWriter, final int) func(sym int) {
	w.bits(final, 1).bits(1, 2)
	lengths := fixedLengths()
	codes := canonical(lengths)
	return func(sym int) { w.code(codes[sym], int(lengths[sym])) }
}

// dynamicBlock starts a dynamic block whose codes have the given
// lengths, sent with a code-length code of 4 bits for each of 0..15, and
// returns writers of its lit/len and distance symbols.
func dynamicBlock(w *bitWriter, final int, lit, dist []uint8) (func(int), func(int)) {
	w.bits(final, 1).bits(2, 2)
	w.bits(len(lit)-257, 5).bits(len(dist)-1, 5).bits(numCodeLen-4, 4)
	for _, sym := range codeLenOrder {
		if sym < 16 {
			w.bits(4, 3)
		} else {
			w.bits(0, 3)
		}
	}
	for _, n := range append(bytes.Clone(lit), dist...) {
		w.code(int(n), 4)
	}
	litCodes, distCodes := canonical(lit), canonical(dist)
	return func(s int) { w.code(litCodes[s], int(lit[s])) },
		func(s int) { w.code(distCodes[s], int(dist[s])) }
}

// lengthsOf is a code-length list of n symbols, the given ones set.
func lengthsOf(n int, set map[int]uint8) []uint8 {
	l := make([]uint8, n)
	for s, v := range set {
		l[s] = v
	}
	return l
}

// craftedStream is a hand-made stream testing one rule both decoders
// must share; refused says which way it goes.
type craftedStream struct {
	name    string
	stream  []byte
	refused bool
}

func craftedStreams() []craftedStream {
	var cs []craftedStream
	add := func(name string, refused bool, build func(w *bitWriter)) {
		var w bitWriter
		build(&w)
		cs = append(cs, craftedStream{name, w.bytes(), refused})
	}
	// 'a', EOB and length symbol 257 (3 bytes) make a complete code.
	threeLit := lengthsOf(258, map[int]uint8{'a': 1, endOfBlock: 2, 257: 2})

	add("lone 1-bit distance code", false, func(w *bitWriter) {
		lit, dist := dynamicBlock(w, 1, threeLit, lengthsOf(1, map[int]uint8{0: 1}))
		lit('a')
		lit(257)
		dist(0)
		lit(endOfBlock)
	})
	add("lone 1-bit distance code read as 1", true, func(w *bitWriter) {
		lit, _ := dynamicBlock(w, 1, threeLit, lengthsOf(1, map[int]uint8{0: 1}))
		lit('a')
		lit(257)
		w.bits(1, 1)
	})
	add("lone 1-bit lit/len code", false, func(w *bitWriter) {
		lit, _ := dynamicBlock(w, 1, lengthsOf(257, map[int]uint8{endOfBlock: 1}), lengthsOf(1, nil))
		lit(endOfBlock)
	})
	add("lone 2-bit code", true, func(w *bitWriter) {
		lit, _ := dynamicBlock(w, 1, lengthsOf(257, map[int]uint8{endOfBlock: 2}), lengthsOf(1, nil))
		lit(endOfBlock)
	})
	add("no distance code, one used", true, func(w *bitWriter) {
		lit, _ := dynamicBlock(w, 1, threeLit, lengthsOf(1, nil))
		lit('a')
		lit(257)
		w.bits(0, 8)
	})
	add("incomplete lit/len code", true, func(w *bitWriter) {
		lit, _ := dynamicBlock(w, 1, lengthsOf(257, map[int]uint8{'a': 1, endOfBlock: 2}), lengthsOf(1, nil))
		lit(endOfBlock)
	})
	add("over-subscribed lit/len code", true, func(w *bitWriter) {
		dynamicBlock(w, 1, lengthsOf(258, map[int]uint8{'a': 1, 'b': 1, endOfBlock: 1}), lengthsOf(1, nil))
		w.bits(0, 8)
	})
	add("over-subscribed distance code", true, func(w *bitWriter) {
		dynamicBlock(w, 1, threeLit, lengthsOf(3, map[int]uint8{0: 1, 1: 1, 2: 1}))
		w.bits(0, 8)
	})
	add("half-full code", true, func(w *bitWriter) {
		lit, _ := dynamicBlock(w, 1, lengthsOf(257, map[int]uint8{'a': 2, endOfBlock: 2}), lengthsOf(1, nil))
		lit('a')
		lit(endOfBlock)
	})
	// Past the counts, each stream below is well-formed.
	for _, nlit := range []int{287, 288} {
		add(fmt.Sprintf("HLIT %d", nlit), true, func(w *bitWriter) {
			lit, _ := dynamicBlock(w, 1, lengthsOf(nlit, map[int]uint8{'a': 1, endOfBlock: 1}), lengthsOf(1, nil))
			lit('a')
			lit(endOfBlock)
		})
	}
	for _, ndist := range []int{31, 32} {
		add(fmt.Sprintf("HDIST %d", ndist), true, func(w *bitWriter) {
			lit, _ := dynamicBlock(w, 1, lengthsOf(257, map[int]uint8{'a': 1, endOfBlock: 1}), lengthsOf(ndist, nil))
			lit('a')
			lit(endOfBlock)
		})
	}
	add("empty code-length code", true, func(w *bitWriter) {
		w.bits(1, 1).bits(2, 2).bits(0, 5).bits(0, 5).bits(0, 4).bits(0, 12).bits(0, 16)
	})
	add("repeat with nothing before it", true, func(w *bitWriter) {
		// Code-length code: 16 and 0 by one bit each.
		w.bits(1, 1).bits(2, 2).bits(0, 5).bits(0, 5).bits(0, 4)
		w.bits(1, 3).bits(0, 3).bits(0, 3).bits(1, 3)
		w.code(1, 1).bits(0, 2).bits(0, 16)
	})
	add("repeat past the last length", true, func(w *bitWriter) {
		// Code-length code: 18 and 1 by one bit each; 257+1 lengths.
		w.bits(1, 1).bits(2, 2).bits(0, 5).bits(0, 5).bits(14, 4)
		for _, sym := range codeLenOrder[:18] {
			if sym == 18 || sym == 1 {
				w.bits(1, 3)
			} else {
				w.bits(0, 3)
			}
		}
		for i := 0; i < 2; i++ {
			w.code(1, 1).bits(127, 7) // 18: 138 zeros
		}
		w.bits(0, 16)
	})
	for _, sym := range []int{286, 287} {
		add(fmt.Sprintf("length symbol %d", sym), true, func(w *bitWriter) {
			lit := fixedBlock(w, 1)
			lit('a')
			lit(sym)
			w.bits(0, 16)
		})
	}
	for _, d := range []int{30, 31} {
		add(fmt.Sprintf("distance symbol %d", d), true, func(w *bitWriter) {
			lit := fixedBlock(w, 1)
			lit('a')
			lit(257)
			w.code(d, 5)
			lit(endOfBlock)
		})
	}
	for _, d := range []int{0, 1} {
		add(fmt.Sprintf("distance %d after one byte", d+1), d > 0, func(w *bitWriter) {
			lit := fixedBlock(w, 1)
			lit('a')
			lit(257)
			w.code(d, 5)
			lit(endOfBlock)
		})
	}
	add("distance with no output", true, func(w *bitWriter) {
		lit := fixedBlock(w, 1)
		lit(257)
		w.code(0, 5)
		lit(endOfBlock)
	})
	add("stored LEN/NLEN mismatch", true, func(w *bitWriter) {
		w.bits(1, 1).bits(0, 2).raw(3, 0, 0xfc, 0xfe, 'a', 'b', 'c')
	})
	add("stored block", false, func(w *bitWriter) {
		w.bits(1, 1).bits(0, 2).raw(3, 0, 0xfc, 0xff, 'a', 'b', 'c')
	})
	add("empty stored block then a fixed one", false, func(w *bitWriter) {
		w.bits(0, 1).bits(0, 2).raw(0, 0, 0xff, 0xff)
		lit := fixedBlock(w, 1)
		lit('z')
		lit(endOfBlock)
	})
	add("block type 3", true, func(w *bitWriter) { w.bits(1, 1).bits(3, 2).bits(0, 16) })
	add("no final block", true, func(w *bitWriter) {
		lit := fixedBlock(w, 0)
		lit('a')
		lit(endOfBlock)
	})
	add("bytes after the final block", false, func(w *bitWriter) {
		lit := fixedBlock(w, 1)
		lit('a')
		lit(endOfBlock)
		w.raw(0xde, 0xad, 0xbe, 0xef)
	})
	return cs
}

// zeroRun is a fixed block of a zero byte and 258-byte matches at
// distance 1 that ends with a match of length last and then the
// literals tail: the output is MaxFrame bytes when last is 253 and there
// is no tail.
func zeroRun(last int, tail ...int) []byte {
	var w bitWriter
	lit := fixedBlock(&w, 1)
	match := func(length int) {
		s := len(lengthBase) - 1
		for int(lengthBase[s]) > length {
			s--
		}
		lit(endOfBlock + 1 + s)
		w.bits(length-int(lengthBase[s]), uint(lengthExtra[s]))
		w.code(0, 5)
	}
	lit(0)
	for i := 0; i < (MaxFrame-1-253)/258; i++ {
		match(258)
	}
	match(last)
	for _, sym := range tail {
		lit(sym)
	}
	lit(endOfBlock)
	return w.bytes()
}

// TestInflateMatchesStdlib: the inflater and compress/flate's reader
// give the same bytes, or both refuse with the same typed error, on
// streams of every flate level (HuffmanOnly and NoCompression among
// them), streams of several blocks, hand-made streams for each rule the
// two must share, and the truncations and bit flips of all of these.
func TestInflateMatchesStdlib(t *testing.T) {
	var p inflatePair
	rng := rand.New(rand.NewSource(35))
	checkAll := func(what string, s []byte) {
		t.Helper()
		if err := p.check(s); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		for i, m := range mutants(rng, s, 16) {
			if err := p.check(m); err != nil {
				t.Fatalf("%s, mutant %d (%d of %d bytes): %v", what, i, len(m), len(s), err)
			}
		}
	}

	streams := 0
	for level := flate.HuffmanOnly; level <= flate.BestCompression; level++ {
		for i := 0; i < 12; i++ {
			payload := inflatePayload(rng)
			var cuts []int
			if i%2 == 1 && len(payload) > 0 {
				cuts = append(cuts, rng.Intn(len(payload)))
				cuts = append(cuts, cuts[0]+rng.Intn(len(payload)-cuts[0]+1))
			}
			s := deflateAt(payload, level, cuts...)
			if err := p.check(s); err != nil || !bytes.Equal(p.got, payload) {
				t.Fatalf("level %d stream %d: %v, %d of %d bytes back", level, i, err, len(p.got), len(payload))
			}
			checkAll(fmt.Sprintf("level %d stream %d", level, i), s)
			streams++
		}
	}

	for _, c := range craftedStreams() {
		if _, err := p.z.inflate(nil, c.stream); (err != nil) != c.refused {
			t.Fatalf("%s: refused %v, want %v (%v)", c.name, err != nil, c.refused, err)
		}
		checkAll(c.name, c.stream)
		streams++
	}

	// Output of exactly MaxFrame inflates; one byte more, from a literal
	// or from a match, is ErrTooLarge.
	for _, s := range [][]byte{
		deflateAt(make([]byte, MaxFrame), flate.BestSpeed),
		deflateAt(make([]byte, MaxFrame+1), flate.BestSpeed),
		zeroRun(253), zeroRun(254), zeroRun(252, 'x'), zeroRun(253, 'x'),
	} {
		if err := p.check(s); err != nil {
			t.Fatalf("%d-byte stream of zeros: %v", len(s), err)
		}
	}
	t.Logf("%d streams and their mutants agree", streams)
}

// FuzzInflate: on any bytes, the inflater and compress/flate's reader
// give the same output or refuse alike, and the inflater's refusals are
// typed.
func FuzzInflate(f *testing.F) {
	rng := rand.New(rand.NewSource(36))
	for level := flate.HuffmanOnly; level <= flate.BestCompression; level += 3 {
		payload := AppendReports(nil, "s1", streamReports(rng, 20))
		f.Add(deflateAt(payload, level, len(payload)/2))
	}
	for _, c := range craftedStreams() {
		f.Add(c.stream)
	}
	var p inflatePair
	f.Fuzz(func(t *testing.T, s []byte) {
		if err := p.check(s); err != nil {
			t.Fatal(err)
		}
	})
}

// BenchmarkInflate: the inflater against compress/flate's reader, each
// kept across frames as a stream keeps its decoder, on a compressed
// 1024-report batch and a compressed 4-bank snapshot frame.
func BenchmarkInflate(b *testing.B) {
	rng := rand.New(rand.NewSource(37))
	var enc SnapshotEncoder
	snapshot, _ := enc.Encode(nil, 1, genBanks(rng, 4, 1024))
	for _, tc := range []struct {
		name    string
		payload []byte
	}{
		{"reports1024", AppendReports(nil, "s1", streamReports(rng, 1024))},
		{"snapshot4banks", snapshot},
	} {
		wire, zipped := Compress(tc.payload, 512)
		if !zipped {
			b.Fatalf("%s: %d bytes do not compress", tc.name, len(tc.payload))
		}
		run := func(b *testing.B, inflate func(buf, src []byte) ([]byte, error)) {
			out, err := inflate(nil, wire)
			if err != nil || !bytes.Equal(out, tc.payload) {
				b.Fatalf("%v, %d of %d bytes back", err, len(out), len(tc.payload))
			}
			b.SetBytes(int64(len(tc.payload)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out, _ = inflate(out, wire)
			}
		}
		b.Run(tc.name+"/inflater", func(b *testing.B) {
			var z inflater
			run(b, z.inflate)
		})
		b.Run(tc.name+"/compress-flate", func(b *testing.B) {
			var s stdInflater
			run(b, s.inflate)
		})
	}
}
