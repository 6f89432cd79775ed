package wire

import (
	"bytes"
	"compress/flate"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"github.com/newton-net/newton/internal/dataplane"
	"github.com/newton-net/newton/internal/fields"
	"github.com/newton-net/newton/internal/modules"
	"github.com/newton-net/newton/internal/sketch"
)

// --- generators shared with the fuzz harness ---

func genMask(rng *rand.Rand) fields.Mask {
	var m fields.Mask
	n := 1 + rng.Intn(3)
	for i := 0; i < n; i++ {
		id := fields.ID(rng.Intn(int(fields.NumFields)))
		if rng.Intn(4) == 0 {
			m[id] = uint64(rng.Intn(0xFFFF) + 1) // partial/derived-key mask
		} else {
			m[id] = id.MaxValue()
		}
	}
	return m
}

func genReports(rng *rand.Rand, streamID string) []dataplane.Report {
	n := rng.Intn(40)
	out := make([]dataplane.Report, 0, n)
	// A few (switch, query, mask) groups, interleaved like a real batch:
	// long same-group runs with occasional group switches.
	type group struct {
		sw   string
		qid  int
		mask fields.Mask
	}
	groups := make([]group, 1+rng.Intn(3))
	for i := range groups {
		sw := streamID
		if rng.Intn(4) == 0 {
			sw = "relay-" + string(rune('a'+i))
		}
		groups[i] = group{sw: sw, qid: rng.Intn(100), mask: genMask(rng)}
	}
	ts := uint64(rng.Intn(1 << 30))
	g := 0
	for i := 0; i < n; i++ {
		if rng.Intn(8) == 0 {
			g = rng.Intn(len(groups))
		}
		// Jitter can go backwards: merged multi-lane rings are not sorted.
		ts = uint64(int64(ts) + int64(rng.Intn(2000)) - 500)
		r := dataplane.Report{
			SwitchID: groups[g].sw,
			QueryID:  groups[g].qid,
			TS:       ts,
			KeyMask:  groups[g].mask,
			State:    uint64(rng.Intn(1 << 20)),
			Global:   rng.Uint64() >> uint(rng.Intn(64)),
		}
		var keys fields.Vector
		for id := fields.ID(0); id < fields.NumFields; id++ {
			keys[id] = rng.Uint64()
		}
		groups[g].mask.ApplyInto(&keys, &r.Keys)
		out = append(out, r)
	}
	return out
}

// genBanks makes a bank set as an engine captures it: a Count-Min
// bank's registers in Values, a Bloom bank's in Bits (the engine's rows
// of bits), each sparsely populated like a real window's bank.
func genBanks(rng *rand.Rand, nBanks, width int) []modules.BankSnapshot {
	banks := make([]modules.BankSnapshot, nBanks)
	for i := range banks {
		kind := modules.BankCMSRow
		if rng.Intn(2) == 1 {
			kind = modules.BankBloomRow
		}
		banks[i] = modules.BankSnapshot{
			QueryID: 1 + i/4, Part: rng.Intn(2), Branch: rng.Intn(2), Row: i,
			Kind:    kind,
			Algo:    sketch.Algo(rng.Intn(5)),
			Seed:    rng.Uint32(),
			Range:   uint32(rng.Intn(1 << 16)),
			KeyMask: genMask(rng),
			Width:   uint32(width),
		}
		emptyRegs(&banks[i])
		// Sparse population, like a real window's bank.
		for j := 0; j < width/8; j++ {
			setReg(&banks[i], rng.Intn(width), uint32(rng.Intn(1<<16)))
		}
	}
	return banks
}

// emptyRegs gives b zeroed registers at its width, in its kind's form.
func emptyRegs(b *modules.BankSnapshot) {
	if b.Kind == modules.BankBloomRow {
		b.Values, b.Bits = nil, make([]uint64, (b.Width+63)/64)
	} else {
		b.Values, b.Bits = make([]uint32, b.Width), nil
	}
}

// setReg writes register i of b as an engine would: a Count-Min register
// takes v, a Bloom register is set when v is nonzero — the bit an or of
// 1 leaves — and clear otherwise.
func setReg(b *modules.BankSnapshot, i int, v uint32) {
	if b.Kind != modules.BankBloomRow {
		b.Values[i] = v
		return
	}
	bit := uint64(1) << (i % 64)
	if v != 0 {
		b.Bits[i/64] |= bit
	} else {
		b.Bits[i/64] &^= bit
	}
}

// regsOf lays b's registers out at its width, one word a register: a
// Bloom bank's from Bits when it has no Values (short registers read as
// zero-padded, registers past the width are cut).
func regsOf(b *modules.BankSnapshot) []uint32 {
	out := make([]uint32, b.Width)
	if b.Kind != modules.BankBloomRow || b.Values != nil {
		copy(out, b.Values)
		return out
	}
	for i := range out {
		if i/64 < len(b.Bits) {
			out[i] = uint32(b.Bits[i/64]>>(i%64)) & 1
		}
	}
	return out
}

// denseView is banks as the dense reference codec takes them: every
// bank's registers in Values, a Bloom bank's as 0s and 1s.
func denseView(banks []modules.BankSnapshot) []modules.BankSnapshot {
	out := make([]modules.BankSnapshot, len(banks))
	for i := range banks {
		out[i] = banks[i]
		if banks[i].Kind == modules.BankBloomRow && banks[i].Values == nil {
			out[i].Values, out[i].Bits = regsOf(&banks[i]), nil
		}
	}
	return out
}

// evolve perturbs a bank set the way consecutive epochs do: most slots
// keep similar values, a few change, occasionally a bank reconfigures.
func evolve(rng *rand.Rand, banks []modules.BankSnapshot) []modules.BankSnapshot {
	out := make([]modules.BankSnapshot, len(banks))
	for i := range banks {
		b := banks[i]
		b.Values, b.Bits = slices.Clone(b.Values), slices.Clone(b.Bits)
		for j := 0; j < int(b.Width)/16+1; j++ {
			setReg(&b, rng.Intn(int(b.Width)), uint32(rng.Intn(1<<16)))
		}
		if rng.Intn(20) == 0 {
			b.Seed++ // reconfigured hash: delta must fall back to full
		}
		out[i] = b
	}
	return out
}

// decoded returns the decoder's result with each bank's registers
// filled in from its cells, in the form the engine captured them.
func decoded(d *SnapshotDecoder, got []modules.BankSnapshot) []modules.BankSnapshot {
	out := make([]modules.BankSnapshot, len(got))
	for i, b := range got {
		c := d.Cells(i)
		if c.set.bloom {
			b.Bits = slices.Clone(c.set.occ)
		} else {
			b.Values = c.set.dense(b.Width)
		}
		out[i] = b
	}
	return out
}

// dense lays the set's registers out at width.
func (s *cellSet) dense(width uint32) []uint32 {
	out := make([]uint32, width)
	k := 0
	for w, word := range s.occ {
		for ; word != 0; word &= word - 1 {
			v := uint32(1)
			if !s.bloom {
				v = s.vals[k]
			}
			out[w*64+bits.TrailingZeros64(word)] = v
			k++
		}
	}
	return out
}

// checkBanksEqual holds got to want header for header and register for
// register, each bank's registers in either form (regsOf). A decoded
// bank has exactly its width of registers.
func checkBanksEqual(t *testing.T, want, got []modules.BankSnapshot) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("bank count: want %d, got %d", len(want), len(got))
	}
	for i := range want {
		w, g := want[i], got[i]
		wv, gv := regsOf(&w), regsOf(&g)
		if g.Values != nil && len(g.Values) != int(g.Width) || g.Bits != nil && len(g.Bits) != int(g.Width+63)/64 {
			t.Fatalf("bank %d: %d values, %d bitmap words for width %d", i, len(g.Values), len(g.Bits), g.Width)
		}
		w.Values, g.Values, w.Bits, g.Bits = nil, nil, nil, nil
		if !reflect.DeepEqual(w, g) {
			t.Fatalf("bank %d header mismatch:\nwant %+v\ngot  %+v", i, w, g)
		}
		for j := range wv {
			if wv[j] != gv[j] {
				t.Fatalf("bank %d cell %d: want %d, got %d", i, j, wv[j], gv[j])
			}
		}
	}
}

// --- framing ---

// deflate is payload compressed by a new flate writer, whether or not
// that shrinks it.
func deflate(payload []byte) []byte {
	var out bytes.Buffer
	zw, _ := flate.NewWriter(&out, flate.BestSpeed)
	zw.Write(payload)
	zw.Close()
	return out.Bytes()
}

// readOne is the first frame of b, through a new FrameReader.
func readOne(b []byte) (Header, []byte, error) {
	return NewFrameReader(bytes.NewReader(b)).Next()
}

// TestFrameRoundTrip: every kind with every flag combination, written by
// one FrameWriter and read back by one FrameReader in order — each frame
// is the two writes' worth of bytes WriteFrame reports, and a compressed
// one comes back inflated.
func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	fw := NewFrameWriter(&buf)
	type sent struct {
		kind    Kind
		flags   Flags
		payload []byte
	}
	var frames []sent
	for _, kind := range []Kind{KindReports, KindSnapshot, KindBye} {
		for _, flags := range []Flags{0, FlagCompressed, FlagDelta, FlagCompressed | FlagDelta} {
			payload := []byte(fmt.Sprintf("payload for %v with flags %d", kind, flags))
			wirePayload := payload
			if flags&FlagCompressed != 0 {
				wirePayload = deflate(payload)
			}
			n, err := fw.WriteFrame(kind, flags, wirePayload)
			if err != nil {
				t.Fatal(err)
			}
			if n != HeaderSize+len(wirePayload) {
				t.Fatalf("frame of %d bytes reported, want %d", n, HeaderSize+len(wirePayload))
			}
			frames = append(frames, sent{kind, flags, payload})
		}
	}
	fr := NewFrameReader(&buf)
	for _, f := range frames {
		hdr, got, err := fr.Next()
		if err != nil {
			t.Fatal(err)
		}
		if hdr.Kind != f.kind || hdr.Flags != f.flags || hdr.Version != Version1 {
			t.Fatalf("header %+v, want kind %v flags %v", hdr, f.kind, f.flags)
		}
		if !bytes.Equal(got, f.payload) {
			t.Fatalf("payload %q, want %q", got, f.payload)
		}
	}
	if _, _, err := fr.Next(); !errors.Is(err, io.EOF) {
		t.Fatalf("after the last frame: %v, want EOF", err)
	}
}

func TestFrameRejectsCorruption(t *testing.T) {
	frame := func(flags Flags, payload []byte) []byte {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, KindReports, flags, payload); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	plain := func() []byte { return frame(0, []byte("hello wire")) }

	cases := []struct {
		name  string
		frame []byte
		want  error
	}{
		{"bad magic", func(b []byte) []byte { b[0] ^= 0xFF; return b }(plain()), ErrBadMagic},
		{"bad version", func(b []byte) []byte { b[2] = 99; return b }(plain()), ErrBadVersion},
		{"oversized length", func(b []byte) []byte { b[8] = 0xFF; b[9] = 0xFF; b[10] = 0xFF; b[11] = 0x7F; return b }(plain()), ErrTooLarge},
		{"payload bit flip", func(b []byte) []byte { b[HeaderSize] ^= 1; return b }(plain()), ErrCRC},
		{"crc bit flip", func(b []byte) []byte { b[12] ^= 1; return b }(plain()), ErrCRC},
		{"compressed garbage", frame(FlagCompressed, []byte{0xde, 0xad, 0xbe, 0xef}), ErrMalformed},
		{"zip bomb", frame(FlagCompressed, deflate(make([]byte, MaxFrame+1))), ErrTooLarge},
	}
	for _, tc := range cases {
		if _, _, err := readOne(tc.frame); !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}

	// Truncation at every byte boundary: an io error, never a panic.
	b := plain()
	for cut := 0; cut < len(b); cut++ {
		if _, _, err := readOne(b[:cut]); err == nil {
			t.Fatalf("truncated frame at %d accepted", cut)
		}
	}
}

func TestCompress(t *testing.T) {
	small := []byte("tiny")
	if out, ok := Compress(small, 512); ok || !bytes.Equal(out, small) {
		t.Fatal("small payload should pass through uncompressed")
	}
	big := bytes.Repeat([]byte("newton telemetry "), 200)
	out, ok := Compress(big, 512)
	if !ok || len(out) >= len(big) {
		t.Fatalf("compressible payload not compressed: %d -> %d", len(big), len(out))
	}
	var buf bytes.Buffer
	if err := WriteFrame(&buf, KindReports, FlagCompressed, out); err != nil {
		t.Fatal(err)
	}
	if _, back, err := readOne(buf.Bytes()); err != nil || !bytes.Equal(back, big) {
		t.Fatalf("decompress mismatch: %v", err)
	}
	if _, ok := Compress(big, -1); ok {
		t.Fatal("negative gate must disable compression")
	}
}

// TestCompressReusedWriterWritesTheSameBytes: compression draws its flate
// writer from a pool and Resets it, and a frame must not depend on what
// the writer compressed before — each result equals a new writer's. A
// FrameWriter's result is its own buffer, overwritten by its next
// Compress; the package Compress's is the caller's to keep. The frames
// inflate back through one FrameReader, whose reader is reused the same
// way and whose buffer is kept across frames, garbage ones included.
func TestCompressReusedWriterWritesTheSameBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var stream bytes.Buffer
	fw := NewFrameWriter(&stream)
	var kept, payloads [][]byte
	for i := 0; i < 8; i++ {
		payload := make([]byte, 600+rng.Intn(5000))
		for j := range payload {
			payload[j] = byte(rng.Intn(4)) // compressible, different every frame
		}
		fresh := deflate(payload)
		out, ok := fw.Compress(payload, 512)
		if !ok || !bytes.Equal(out, fresh) {
			t.Fatalf("frame %d: pooled writer wrote %d B, a new one %d B", i, len(out), len(fresh))
		}
		if _, err := fw.WriteFrame(KindSnapshot, FlagCompressed, out); err != nil {
			t.Fatal(err)
		}
		if _, err := fw.WriteFrame(KindSnapshot, FlagCompressed, []byte{0xde, 0xad, 0xbe, 0xef}); err != nil {
			t.Fatal(err)
		}
		own, _ := Compress(payload, 512)
		kept, payloads = append(kept, own), append(payloads, payload)
	}
	for i := range kept { // earlier results survived later calls
		if !bytes.Equal(kept[i], deflate(payloads[i])) {
			t.Fatalf("frame %d was overwritten by a later Compress", i)
		}
	}

	fr := NewFrameReader(&stream)
	var largest []byte
	for i := range payloads {
		_, back, err := fr.Next()
		if err != nil || !bytes.Equal(back, payloads[i]) {
			t.Fatalf("frame %d: inflate through the kept buffer: %v", i, err)
		}
		if len(back) > len(largest) {
			largest = back
		} else if &back[0] != &largest[0] {
			t.Errorf("frame %d of %d B did not inflate into the buffer a %d B frame grew", i, len(back), len(largest))
		}
		if _, _, err := fr.Next(); !errors.Is(err, ErrMalformed) {
			t.Fatalf("garbage after frame %d: %v, want ErrMalformed", i, err)
		}
	}
}

// --- report codec ---

func TestReportsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 200; trial++ {
		rs := genReports(rng, "s1")
		payload := AppendReports(nil, "s1", rs)
		got, err := DecodeReports(payload, "s1")
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if len(rs) == 0 {
			if len(got) != 0 {
				t.Fatalf("trial %d: empty batch decoded to %d reports", trial, len(got))
			}
			continue
		}
		if !reflect.DeepEqual(rs, got) {
			t.Fatalf("trial %d: round trip mismatch\nwant %+v\ngot  %+v", trial, rs, got)
		}
	}
}

func TestReportsRejectTruncation(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	rs := genReports(rng, "s1")
	for len(rs) == 0 {
		rs = genReports(rng, "s1")
	}
	payload := AppendReports(nil, "s1", rs)
	for cut := 0; cut < len(payload); cut++ {
		if _, err := DecodeReports(payload[:cut], "s1"); err == nil {
			t.Fatalf("truncated payload at %d accepted", cut)
		}
	}
	if _, err := DecodeReports(append(payload, 0), "s1"); err == nil {
		t.Fatal("trailing garbage accepted")
	}
}

// TestReportsRejectOverlongVarint: a varint in more bytes than its value
// needs is malformed, as in every payload: a batch has one encoding.
func TestReportsRejectOverlongVarint(t *testing.T) {
	rs := []dataplane.Report{{QueryID: 1, TS: 5, State: 3}}
	payload := AppendReports(nil, "s1", rs)
	if payload[0] >= 0x80 {
		t.Fatalf("run count %#x is not one byte", payload[0])
	}
	overlong := append([]byte{payload[0] | 0x80, 0}, payload[1:]...)
	if _, err := DecodeReports(overlong, "s1"); !errors.Is(err, ErrMalformed) {
		t.Fatalf("run count in two bytes: %v, want ErrMalformed", err)
	}
}

// TestReportsRejectNonCanonicalRuns: AppendReports writes no empty run
// and never two adjacent runs under one (switch, query, mask); a batch
// that does is malformed, so a decoded batch re-encodes to its own
// bytes.
func TestReportsRejectNonCanonicalRuns(t *testing.T) {
	rs := []dataplane.Report{{SwitchID: "s1", QueryID: 1, TS: 5, State: 3}}
	run := AppendReports(nil, "s1", rs)[1:] // one run, after the run count
	for name, payload := range map[string][]byte{
		"empty run": {1, 0, 1, 0, 0},
		"split run": append(append([]byte{2}, run...), run...),
	} {
		if _, err := DecodeReports(payload, "s1"); !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: %v, want ErrMalformed", name, err)
		}
	}
	if got, err := DecodeReports(AppendReports(nil, "", rs), ""); err != nil || !reflect.DeepEqual(got, rs) {
		t.Fatalf("a batch under stream ID \"\" names its switch: %+v, %v", got, err)
	}
}

// --- snapshot codec ---

func TestSnapshotKeyframeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		banks := genBanks(rng, 1+rng.Intn(6), 64)
		var enc SnapshotEncoder
		var dec SnapshotDecoder
		payload, flags := enc.Encode(nil, uint32(trial), banks)
		if flags&FlagDelta != 0 {
			t.Fatal("first frame must be a keyframe")
		}
		epoch, got, err := dec.Decode(payload)
		if err != nil {
			t.Fatal(err)
		}
		if epoch != uint32(trial) {
			t.Fatalf("epoch %d, want %d", epoch, trial)
		}
		checkBanksEqual(t, banks, decoded(&dec, got))
	}
}

func TestSnapshotDeltaChain(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	enc := SnapshotEncoder{KeyframeEvery: 4}
	var dec SnapshotDecoder
	banks := genBanks(rng, 5, 128)
	keyBytes, deltaBytes := 0, 0
	for epoch := uint32(1); epoch <= 20; epoch++ {
		payload, flags := enc.Encode(nil, epoch, banks)
		if flags&FlagDelta == 0 {
			keyBytes += len(payload)
		} else {
			deltaBytes += len(payload)
		}
		_, got, err := dec.Decode(payload)
		if err != nil {
			t.Fatalf("epoch %d: %v", epoch, err)
		}
		checkBanksEqual(t, banks, decoded(&dec, got))
		banks = evolve(rng, banks)
	}
	if enc.DeltaBanks == 0 {
		t.Fatal("delta chain never delta-encoded a bank")
	}
	// 15 delta frames vs 5 keyframes: deltas must be much smaller.
	if deltaBytes*2 >= keyBytes*3 {
		t.Fatalf("delta frames not smaller: %d delta bytes vs %d keyframe bytes", deltaBytes, keyBytes)
	}
}

func TestSnapshotKeyframeCadence(t *testing.T) {
	enc := SnapshotEncoder{KeyframeEvery: 3}
	banks := genBanks(rand.New(rand.NewSource(13)), 2, 32)
	var kinds []bool
	for epoch := uint32(0); epoch < 7; epoch++ {
		_, flags := enc.Encode(nil, epoch, banks)
		kinds = append(kinds, flags&FlagDelta == 0)
	}
	want := []bool{true, false, false, true, false, false, true}
	if !reflect.DeepEqual(kinds, want) {
		t.Fatalf("keyframe cadence %v, want %v", kinds, want)
	}

	every1 := SnapshotEncoder{KeyframeEvery: 1}
	for epoch := uint32(0); epoch < 3; epoch++ {
		if _, flags := every1.Encode(nil, epoch, banks); flags&FlagDelta != 0 {
			t.Fatal("KeyframeEvery=1 must never emit deltas")
		}
	}
}

func TestSnapshotGapRejectedUntilKeyframe(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	enc := SnapshotEncoder{KeyframeEvery: 4}
	var dec SnapshotDecoder
	banks := genBanks(rng, 3, 64)

	type frame struct {
		payload []byte
		flags   Flags
		banks   []modules.BankSnapshot
	}
	var frames []frame
	for epoch := uint32(1); epoch <= 8; epoch++ {
		p, f := enc.Encode(nil, epoch, banks)
		frames = append(frames, frame{p, f, banks})
		banks = evolve(rng, banks)
	}

	// Apply frame 1 (keyframe), drop frame 2 (delta), then try 3: the
	// chain is broken until the next keyframe (frame 5, epoch 5).
	if _, _, err := dec.Decode(frames[0].payload); err != nil {
		t.Fatal(err)
	}
	if frames[1].flags&FlagDelta == 0 || frames[2].flags&FlagDelta == 0 {
		t.Fatal("test wants frames 2 and 3 to be deltas")
	}
	if _, _, err := dec.Decode(frames[2].payload); !errors.Is(err, ErrDeltaBase) {
		t.Fatalf("gap: got %v, want ErrDeltaBase", err)
	}
	// Rejection left state intact: frame 2 still applies, then 3.
	if _, got, err := dec.Decode(frames[1].payload); err != nil {
		t.Fatal(err)
	} else {
		checkBanksEqual(t, frames[1].banks, decoded(&dec, got))
	}
	if _, got, err := dec.Decode(frames[2].payload); err != nil {
		t.Fatal(err)
	} else {
		checkBanksEqual(t, frames[2].banks, decoded(&dec, got))
	}
	// And after a real gap, the keyframe re-grounds the stream.
	if _, _, err := dec.Decode(frames[5].payload); !errors.Is(err, ErrDeltaBase) {
		t.Fatalf("gap: got %v, want ErrDeltaBase", err)
	}
	if frames[4].flags&FlagDelta != 0 {
		t.Fatal("test wants frame 5 to be a keyframe")
	}
	if _, got, err := dec.Decode(frames[4].payload); err != nil {
		t.Fatal(err)
	} else {
		checkBanksEqual(t, frames[4].banks, decoded(&dec, got))
	}
}

func TestSnapshotReconnectReset(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	enc := SnapshotEncoder{KeyframeEvery: 8}
	banks := genBanks(rng, 3, 64)
	if _, flags := enc.Encode(nil, 1, banks); flags&FlagDelta != 0 {
		t.Fatal("first frame must be a keyframe")
	}
	banks = evolve(rng, banks)
	if _, flags := enc.Encode(nil, 2, banks); flags&FlagDelta == 0 {
		t.Fatal("second frame should be a delta")
	}

	// Reconnect: encoder reset, fresh decoder (the peer lost its state).
	enc.Reset()
	banks = evolve(rng, banks)
	payload, flags := enc.Encode(nil, 3, banks)
	if flags&FlagDelta != 0 {
		t.Fatal("post-reset frame must be a keyframe")
	}
	var dec SnapshotDecoder
	_, got, err := dec.Decode(payload)
	if err != nil {
		t.Fatal(err)
	}
	checkBanksEqual(t, banks, decoded(&dec, got))
}

func TestSnapshotRejectTruncation(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	var enc SnapshotEncoder
	payload, _ := enc.Encode(nil, 7, genBanks(rng, 3, 32))
	for cut := 0; cut < len(payload); cut++ {
		var dec SnapshotDecoder
		if _, _, err := dec.Decode(payload[:cut]); err == nil {
			t.Fatalf("truncated snapshot at %d accepted", cut)
		}
	}
	var dec SnapshotDecoder
	if _, _, err := dec.Decode(append(payload, 0)); err == nil {
		t.Fatal("trailing garbage accepted")
	}
}

// TestSnapshotRefusesUnslottableBanks: a bank naming a hash algorithm
// the sketch package does not know, or of width 0, is ErrMalformed.
// Accepted, either one panicked the analyzer's first BankSnapshot.Slot
// on it (an unknown algorithm, or an integer divide by zero).
func TestSnapshotRefusesUnslottableBanks(t *testing.T) {
	for _, tc := range []struct {
		name  string
		spoil func(b *modules.BankSnapshot)
	}{
		{"unknown algo", func(b *modules.BankSnapshot) { b.Algo = 9 }},
		{"zero width", func(b *modules.BankSnapshot) { b.Width, b.Values, b.Bits = 0, nil, nil }},
	} {
		banks := genBanks(rand.New(rand.NewSource(17)), 2, 32)
		tc.spoil(&banks[1])
		payload, _ := new(SnapshotEncoder).Encode(nil, 1, banks)
		if _, _, err := new(SnapshotDecoder).Decode(payload); !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: decoded with %v, want ErrMalformed", tc.name, err)
		}
	}
}

// TestSnapshotRefusesMultiBitBloomCells: a Bloom bank's registers are
// bits, so a full cell of any value but 1, or a delta cell that XORs
// anything but 1, is ErrMalformed — at the sparse decoder and the dense
// reference alike. The dense reference encoder, given the multi-bit
// Bloom registers genBanks once made, writes such frames; no engine
// holds such registers, and the sparse encoder cannot write them.
func TestSnapshotRefusesMultiBitBloomCells(t *testing.T) {
	bank := func(vals ...uint32) []modules.BankSnapshot {
		return []modules.BankSnapshot{{QueryID: 1, Kind: modules.BankBloomRow, Width: 4, Values: vals}}
	}
	for _, tc := range []struct {
		name       string
		base, next []uint32 // base nil: next is a keyframe
	}{
		{"full cell 2", nil, []uint32{0, 2, 0, 1}},
		{"full cell 0xFFFFFFFF", nil, []uint32{0xFFFFFFFF, 0, 0, 0}},
		{"delta xor 2", []uint32{0, 1, 0, 1}, []uint32{0, 3, 0, 1}},
		{"delta xor 3", []uint32{1, 1, 0, 1}, []uint32{2, 1, 0, 1}},
	} {
		ref := &denseEncoder{KeyframeEvery: 8}
		dec := &decoderPair{}
		if tc.base != nil {
			key, _ := ref.Encode(nil, 1, bank(tc.base...))
			if class, _ := dec.feed(t, tc.name+" base", key); class != "ok" {
				t.Fatalf("%s: the 0/1 base is refused: %s", tc.name, class)
			}
		}
		frame, flags := ref.Encode(nil, 2, bank(tc.next...))
		if (flags&FlagDelta != 0) != (tc.base != nil) {
			t.Fatalf("%s: the reference wrote flags %b", tc.name, flags)
		}
		if class, _ := dec.feed(t, tc.name, frame); class != "malformed" {
			t.Errorf("%s: decoded as %s, want malformed", tc.name, class)
		}
	}

	// A delta cell that XORs 0 changes nothing, and no encoder writes one.
	var dec decoderPair
	key, _ := (&denseEncoder{}).Encode(nil, 1, bank(0, 1, 0, 1))
	dec.feed(t, "base", key)
	delta := []byte{2, 1, 1, 1} // epoch 2, a delta on epoch 1, one bank
	delta = appendBankHeader(delta, &bank()[0])
	delta = append(delta, encDelta, 1, 1, 0) // one cell: register 1, XOR 0
	if class, _ := dec.feed(t, "xor 0", delta); class != "malformed" {
		t.Errorf("a delta cell of XOR 0 decoded as %s, want malformed", class)
	}

	// A sender that holds a Bloom bank's registers as words is told so
	// before anything is encoded: the encoder reads a Bloom bank's Bits.
	if err := CheckSnapshot(bank(0, 1, 0, 1)); !errors.Is(err, ErrMalformed) {
		t.Errorf("CheckSnapshot of a Bloom bank in Values: %v, want ErrMalformed", err)
	}
}

// --- bye codec ---

func TestByeRoundTrip(t *testing.T) {
	st := ExportStats{Enqueued: 10, Exported: 9, Dropped: 1, Batches: 3, Snapshots: 2, Reconnects: 1}
	payload, err := AppendBye(nil, st)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeBye(payload)
	if err != nil {
		t.Fatal(err)
	}
	if got != st {
		t.Fatalf("bye round trip: want %+v, got %+v", st, got)
	}
	if _, err := DecodeBye([]byte("{")); !errors.Is(err, ErrMalformed) {
		t.Fatalf("malformed bye: got %v", err)
	}
}
