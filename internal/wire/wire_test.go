package wire

import (
	"bytes"
	"compress/flate"
	"errors"
	"math/bits"
	"math/rand"
	"reflect"
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
			Values:  make([]uint32, width),
		}
		// Sparse population, like a real window's bank.
		for j := 0; j < width/8; j++ {
			banks[i].Values[rng.Intn(width)] = uint32(rng.Intn(1 << 16))
		}
	}
	return banks
}

// evolve perturbs a bank set the way consecutive epochs do: most slots
// keep similar values, a few change, occasionally a bank reconfigures.
func evolve(rng *rand.Rand, banks []modules.BankSnapshot) []modules.BankSnapshot {
	out := make([]modules.BankSnapshot, len(banks))
	for i := range banks {
		b := banks[i]
		b.Values = append([]uint32(nil), banks[i].Values...)
		for j := 0; j < len(b.Values)/16+1; j++ {
			b.Values[rng.Intn(len(b.Values))] = uint32(rng.Intn(1 << 16))
		}
		if rng.Intn(20) == 0 {
			b.Seed++ // reconfigured hash: delta must fall back to full
		}
		out[i] = b
	}
	return out
}

// decoded returns the last Decode's result with every bank's registers
// laid out at its width — copies, the caller's to keep — the form the
// tests compare against what went into the encoder.
func decoded(d *SnapshotDecoder, got []modules.BankSnapshot) []modules.BankSnapshot {
	out := make([]modules.BankSnapshot, len(got))
	for i, b := range got {
		c := d.Cells(i)
		b.Values = c.set.dense(b.Width)
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
			out[w*64+bits.TrailingZeros64(word)] = s.vals[k]
			k++
		}
	}
	return out
}

func checkBanksEqual(t *testing.T, want, got []modules.BankSnapshot) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("bank count: want %d, got %d", len(want), len(got))
	}
	for i := range want {
		w, g := want[i], got[i]
		wv, gv := w.Values, g.Values
		w.Values, g.Values = nil, nil
		if !reflect.DeepEqual(w, g) {
			t.Fatalf("bank %d header mismatch:\nwant %+v\ngot  %+v", i, w, g)
		}
		if len(gv) != int(w.Width) {
			t.Fatalf("bank %d: %d values for width %d", i, len(gv), w.Width)
		}
		for j := range wv {
			if wv[j] != gv[j] {
				t.Fatalf("bank %d cell %d: want %d, got %d", i, j, wv[j], gv[j])
			}
		}
	}
}

// --- framing ---

func TestFrameRoundTrip(t *testing.T) {
	for _, kind := range []Kind{KindReports, KindSnapshot, KindBye} {
		for _, flags := range []Flags{0, FlagCompressed, FlagDelta, FlagCompressed | FlagDelta} {
			payload := []byte("payload for " + kind.String())
			var buf bytes.Buffer
			if err := WriteFrame(&buf, kind, flags, payload); err != nil {
				t.Fatal(err)
			}
			if buf.Len() != HeaderSize+len(payload) {
				t.Fatalf("frame size %d, want %d", buf.Len(), HeaderSize+len(payload))
			}
			hdr, got, err := ReadFrame(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if hdr.Kind != kind || hdr.Flags != flags || hdr.Version != Version1 {
				t.Fatalf("header %+v, want kind %v flags %v", hdr, kind, flags)
			}
			if !bytes.Equal(got, payload) {
				t.Fatalf("payload %q, want %q", got, payload)
			}
		}
	}
}

func TestFrameRejectsCorruption(t *testing.T) {
	frame := func() []byte {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, KindReports, 0, []byte("hello wire")); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	cases := []struct {
		name    string
		corrupt func([]byte) []byte
		want    error
	}{
		{"bad magic", func(b []byte) []byte { b[0] ^= 0xFF; return b }, ErrBadMagic},
		{"bad version", func(b []byte) []byte { b[2] = 99; return b }, ErrBadVersion},
		{"oversized length", func(b []byte) []byte { b[8] = 0xFF; b[9] = 0xFF; b[10] = 0xFF; b[11] = 0x7F; return b }, ErrTooLarge},
		{"payload bit flip", func(b []byte) []byte { b[HeaderSize] ^= 1; return b }, ErrCRC},
		{"crc bit flip", func(b []byte) []byte { b[12] ^= 1; return b }, ErrCRC},
	}
	for _, tc := range cases {
		b := tc.corrupt(frame())
		if _, _, err := ReadFrame(bytes.NewReader(b)); !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}

	// Truncation at every byte boundary: an io error, never a panic.
	b := frame()
	for cut := 0; cut < len(b); cut++ {
		if _, _, err := ReadFrame(bytes.NewReader(b[:cut])); err == nil {
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
	back, err := Decompress(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, big) {
		t.Fatal("decompress mismatch")
	}
	if _, ok := Compress(big, -1); ok {
		t.Fatal("negative gate must disable compression")
	}
	if _, err := Decompress([]byte{0xde, 0xad, 0xbe, 0xef}); err == nil {
		t.Fatal("garbage must not decompress")
	}
}

// TestCompressReusedWriterWritesTheSameBytes: Compress draws its flate
// writer from a pool and Resets it, and a frame must not depend on what
// the writer compressed before — each result equals a new writer's, is
// the caller's own, and inflates back through a reader and a buffer
// that are reused the same way (after garbage, too).
func TestCompressReusedWriterWritesTheSameBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var outs, payloads [][]byte
	var buf []byte
	for i := 0; i < 8; i++ {
		payload := make([]byte, 600+rng.Intn(5000))
		for j := range payload {
			payload[j] = byte(rng.Intn(4)) // compressible, different every frame
		}
		var fresh bytes.Buffer
		zw, _ := flate.NewWriter(&fresh, flate.BestSpeed)
		zw.Write(payload)
		zw.Close()

		out, ok := Compress(payload, 512)
		if !ok || !bytes.Equal(out, fresh.Bytes()) {
			t.Fatalf("frame %d: pooled writer wrote %d B, a new one %d B", i, len(out), fresh.Len())
		}
		outs, payloads = append(outs, out), append(payloads, payload)

		if _, err := DecompressInto(buf, []byte{0xde, 0xad, 0xbe, 0xef}); err == nil {
			t.Fatal("garbage must not decompress")
		}
		back, err := DecompressInto(buf, out)
		if err != nil || !bytes.Equal(back, payload) {
			t.Fatalf("frame %d: inflate through the kept buffer: %v", i, err)
		}
		buf = back
	}
	for i := range outs { // earlier results survived later calls
		if back, err := Decompress(outs[i]); err != nil || !bytes.Equal(back, payloads[i]) {
			t.Fatalf("frame %d was overwritten by a later Compress: %v", i, err)
		}
	}
	big := make([]byte, 0, 1<<16)
	if back, _ := DecompressInto(big, outs[7]); &back[0] != &big[:1][0] {
		t.Error("a buffer with room to spare was not inflated into")
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
