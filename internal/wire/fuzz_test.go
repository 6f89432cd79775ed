package wire

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"github.com/newton-net/newton/internal/dataplane"
)

func randStats(rng *rand.Rand) ExportStats {
	return ExportStats{
		Enqueued: rng.Uint64() >> 1, Exported: rng.Uint64() >> 1,
		Dropped: uint64(rng.Intn(100)), Overflows: uint64(rng.Intn(10)),
		Batches: uint64(rng.Intn(1000)), Snapshots: uint64(rng.Intn(100)),
		Reconnects: uint64(rng.Intn(5)),
		WireBytes:  rng.Uint64() >> 1, DeltaBanks: uint64(rng.Intn(1000)),
	}
}

// FuzzWireRoundTrip drives the codec from both directions with one
// corpus. The fuzz input's first byte picks the mode, the second seeds
// a generator, and the rest is raw material:
//
//   - even modes: the remaining bytes are treated as hostile wire input
//     and fed to every decoder (a frame reader over them as a stream,
//     and over them as a compressed frame's payload; the
//     report/snapshot/bye payload decoders, the report decoder into a
//     kept slice, and a mid-chain snapshot decoder). Anything may be
//     rejected — with a typed error — but nothing may panic.
//   - odd modes: the seed generates a structured value for one frame
//     kind, which must survive encode → frame → unframe → decode
//     bit-exactly, including a delta chain for snapshots.
func FuzzWireRoundTrip(f *testing.F) {
	for seed := byte(0); seed < 8; seed++ {
		f.Add([]byte{seed, seed * 31, 0xAA, 0x55, 0x00, 0xFF})
	}
	// A well-formed frame prefix, for the mutator to corrupt.
	rng := rand.New(rand.NewSource(1))
	payload := AppendReports(nil, "s1", genReports(rng, "s1"))
	var frame bytes.Buffer
	_ = WriteFrame(&frame, KindReports, 0, payload)
	f.Add(append([]byte{0, 1}, frame.Bytes()...))
	var enc SnapshotEncoder
	snapPayload, _ := enc.Encode(nil, 3, genBanks(rng, 2, 16))
	f.Add(append([]byte{2, 7}, snapPayload...))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		mode, seed, raw := data[0], data[1], data[2:]
		if mode%2 == 0 {
			fuzzDecoders(raw)
			return
		}
		fuzzRoundTrip(t, mode, seed)
	})
}

// fuzzDecoders throws raw bytes at every decode surface; only typed
// rejection or clean success is acceptable.
func fuzzDecoders(raw []byte) {
	fr := NewFrameReader(bytes.NewReader(raw))
	for {
		if _, _, err := fr.Next(); err != nil {
			break
		}
	}
	var compressed bytes.Buffer
	_ = WriteFrame(&compressed, KindSnapshot, FlagCompressed, raw)
	_, _, _ = NewFrameReader(&compressed).Next()
	_, _ = DecodeReports(raw, "s1")
	_, _ = DecodeReportsInto(make([]dataplane.Report, 3), raw, "s1")
	_, _ = DecodeBye(raw)

	var dec SnapshotDecoder
	_, _, _ = dec.Decode(raw)

	// A decoder mid-chain must also survive hostile deltas.
	rng := rand.New(rand.NewSource(99))
	var enc SnapshotEncoder
	keyframe, _ := enc.Encode(nil, 1, genBanks(rng, 2, 16))
	var warm SnapshotDecoder
	if _, _, err := warm.Decode(keyframe); err == nil {
		_, _, _ = warm.Decode(raw)
	}
}

func fuzzRoundTrip(t *testing.T, mode, seed byte) {
	rng := rand.New(rand.NewSource(int64(seed)))
	switch mode % 8 {
	case 1, 5: // reports
		rs := genReports(rng, "fuzz-switch")
		payload := AppendReports(nil, "fuzz-switch", rs)
		// Into a kept slice that held a longer batch: nothing of it may show.
		kept := genReports(rand.New(rand.NewSource(int64(seed)+1)), "other")
		got, err := DecodeReportsInto(kept, reframe(t, KindReports, 0, payload), "fuzz-switch")
		if err != nil {
			t.Fatalf("reports: %v", err)
		}
		if len(rs) != len(got) || (len(rs) > 0 && !reflect.DeepEqual(rs, got)) {
			t.Fatalf("reports round trip mismatch (%d in, %d out)", len(rs), len(got))
		}
	case 3: // snapshot delta chain
		enc := SnapshotEncoder{KeyframeEvery: 1 + int(seed%4)}
		var dec SnapshotDecoder
		banks := genBanks(rng, 1+rng.Intn(4), 8+rng.Intn(56))
		for epoch := uint32(1); epoch < 6; epoch++ {
			payload, flags := enc.Encode(nil, epoch, banks)
			_, got, err := dec.Decode(reframe(t, KindSnapshot, flags, payload))
			if err != nil {
				t.Fatalf("snapshot epoch %d: %v", epoch, err)
			}
			if len(got) != len(banks) {
				t.Fatalf("snapshot epoch %d: %d banks, want %d", epoch, len(got), len(banks))
			}
			checkBanksEqual(t, banks, decoded(&dec, got))
			banks = evolve(rng, banks)
		}
	case 7: // bye, with compression over the frame path
		st := randStats(rng)
		payload, err := AppendBye(nil, st)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeBye(reframe(t, KindBye, 0, payload))
		if err != nil {
			t.Fatalf("bye: %v", err)
		}
		if got != st {
			t.Fatalf("bye round trip: want %+v got %+v", st, got)
		}
	}
}

// reframe pushes a payload through write → read, compressing when the
// gate fires, and returns the decoded payload — the full wire path.
func reframe(t *testing.T, kind Kind, flags Flags, payload []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	fw := NewFrameWriter(&buf)
	wirePayload, compressed := fw.Compress(payload, 64)
	if compressed {
		flags |= FlagCompressed
	}
	if _, err := fw.WriteFrame(kind, flags, wirePayload); err != nil {
		t.Fatal(err)
	}
	hdr, got, err := NewFrameReader(&buf).Next()
	if err != nil {
		t.Fatal(err)
	}
	if hdr.Kind != kind {
		t.Fatalf("kind %v, want %v", hdr.Kind, kind)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("frame payload mismatch")
	}
	return got
}
