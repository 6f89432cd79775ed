package wire

import (
	"bytes"
	"io"
	"math/rand"
	"testing"

	"github.com/newton-net/newton/internal/dataplane"
)

// streamReports is a batch of n reports all of stream s1's own switch:
// the run header elides the ID, so decoding makes no string.
func streamReports(rng *rand.Rand, n int) []dataplane.Report {
	var rs []dataplane.Report
	for len(rs) < n {
		for _, r := range genReports(rng, "s1") {
			r.SwitchID = "s1"
			rs = append(rs, r)
		}
	}
	return rs[:n]
}

// TestFrameReaderKeepsItsBuffers: a stream of report and snapshot
// frames, plain and compressed past the exporter's 512 B gate, read by
// one FrameReader and its report frames decoded into one kept slice,
// allocates nothing per frame once a first pass has sized the buffers.
// Measured before FrameReader, with ReadFrame and DecodeReports: 6
// allocations a frame; with FrameReader inflating through a pooled
// compress/flate reader: 8 a frame over this stream, its per-block
// Huffman link tables.
func TestFrameReaderKeepsItsBuffers(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	type frame struct {
		kind    Kind
		flags   Flags
		payload []byte
	}
	var frames []frame
	var enc SnapshotEncoder
	zw := NewFrameWriter(nil)
	banks := genBanks(rng, 4, 256)
	zipped := map[Kind]int{}
	for i := 0; i < 101; i++ {
		f := frame{kind: KindReports}
		if i%2 == 0 {
			f.payload = AppendReports(nil, "s1", streamReports(rng, 1+rng.Intn(1024)))
		} else {
			f.kind = KindSnapshot
			f.payload, f.flags = enc.Encode(nil, uint32(i), banks)
			banks = evolve(rng, banks)
		}
		if wirePayload, ok := zw.Compress(f.payload, 512); ok {
			f.payload, f.flags = bytes.Clone(wirePayload), f.flags|FlagCompressed
			zipped[f.kind]++
		}
		frames = append(frames, f)
	}
	if zipped[KindReports] == 0 || zipped[KindSnapshot] == 0 || zipped[KindReports]+zipped[KindSnapshot] == len(frames) {
		t.Fatalf("compressed frames by kind %v of %d: the test wants both kinds compressed, and plain frames", zipped, len(frames))
	}
	var stream bytes.Buffer
	fw := NewFrameWriter(&stream)
	for pass := 0; pass < 2; pass++ {
		for _, f := range frames {
			if _, err := fw.WriteFrame(f.kind, f.flags, f.payload); err != nil {
				t.Fatal(err)
			}
		}
	}

	fr := NewFrameReader(&stream)
	var rs []dataplane.Report
	decodedReports := 0
	next := func() {
		hdr, payload, err := fr.Next()
		if err != nil {
			t.Fatal(err)
		}
		if hdr.Kind == KindReports {
			if rs, err = DecodeReportsInto(rs, payload, "s1"); err != nil {
				t.Fatal(err)
			}
			decodedReports += len(rs)
		}
	}
	for range frames {
		next()
	}
	if n := testing.AllocsPerRun(len(frames)-1, next); n != 0 {
		t.Fatalf("reading and decoding a frame allocates %.2f times", n)
	}
	if decodedReports < 2*1024 {
		t.Fatalf("decoded %d reports", decodedReports)
	}
}

// TestFrameWriterKeepsItsBuffers: one FrameWriter framing report and
// snapshot payloads, compressing those past the exporter's 512 B gate,
// allocates nothing per frame: the header and the compressed output are
// its own, and the flate writer is the pool's. Measured before
// FrameWriter, with Compress and WriteFrame: 2 allocations a compressed
// frame, 1 an uncompressed one.
func TestFrameWriterKeepsItsBuffers(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop pooled flate writers")
	}
	rng := rand.New(rand.NewSource(22))
	var enc SnapshotEncoder
	payloads := [][]byte{AppendReports(nil, "s1", streamReports(rng, 4))}
	for i := 0; i < 8; i++ {
		payloads = append(payloads, AppendReports(nil, "s1", streamReports(rng, 256)))
		snap, _ := enc.Encode(nil, uint32(i), genBanks(rng, 4, 1024))
		payloads = append(payloads, snap)
	}
	fw := NewFrameWriter(io.Discard)
	compressed, i := 0, 0
	write := func() {
		p := payloads[i%len(payloads)]
		i++
		wirePayload, zipped := fw.Compress(p, 512)
		flags := Flags(0)
		if zipped {
			flags, compressed = FlagCompressed, compressed+1
		}
		if _, err := fw.WriteFrame(KindReports, flags, wirePayload); err != nil {
			t.Fatal(err)
		}
	}
	for range payloads { // the output buffer grows to the largest frame
		write()
	}
	if n := testing.AllocsPerRun(10*len(payloads), write); n != 0 {
		t.Fatalf("framing a payload allocates %.2f times", n)
	}
	if compressed == 0 || compressed == i {
		t.Fatalf("%d of %d frames compressed: the test wants both kinds", compressed, i)
	}
}
