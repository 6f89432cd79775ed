package wire

import (
	"bytes"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"github.com/newton-net/newton/internal/modules"
)

// errClass names which of the codec's typed errors err is; the stream
// layer tells them apart (a missing base is a dropped frame, anything
// else a dropped stream), so the two decoders must agree on it.
func errClass(t *testing.T, err error) string {
	t.Helper()
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, ErrDeltaBase):
		return "delta-base"
	case errors.Is(err, ErrMalformed):
		return "malformed"
	case errors.Is(err, ErrTooLarge):
		return "too-large"
	case errors.Is(err, ErrTruncated):
		return "truncated"
	}
	t.Fatalf("untyped decode error: %v", err)
	return ""
}

// decoderPair is the sparse decoder and the dense reference on one
// stream: every frame goes to both.
type decoderPair struct {
	sparse SnapshotDecoder
	dense  denseDecoder
}

// feed decodes one frame on both and holds them to the same verdict,
// the same error class, and the same banks and registers. It returns the
// class and, on success, the registers.
func (p *decoderPair) feed(t *testing.T, what string, frame []byte) (string, []modules.BankSnapshot) {
	t.Helper()
	epoch, got, err := p.sparse.Decode(frame)
	wantEpoch, want, wantErr := p.dense.Decode(frame)
	class := errClass(t, err)
	if wantClass := errClass(t, wantErr); class != wantClass {
		t.Fatalf("%s: sparse decoder says %s (%v), dense reference %s (%v)", what, class, err, wantClass, wantErr)
	}
	if err != nil {
		return class, nil
	}
	if epoch != wantEpoch {
		t.Fatalf("%s: epoch %d, reference %d", what, epoch, wantEpoch)
	}
	for i := range got {
		if got[i].Values != nil {
			t.Fatalf("%s: bank %d came back with dense Values", what, i)
		}
	}
	banks := decoded(&p.sparse, got)
	checkBanksEqual(t, want, banks)
	return class, banks
}

// mutate corrupts a copy of a frame: op picks how, at and val where and
// with what.
func mutate(frame []byte, op, at, val byte) []byte {
	out := slices.Clone(frame)
	if len(out) == 0 {
		return append(out, val)
	}
	i := int(at) % len(out)
	switch op % 7 {
	case 0:
		out[i] ^= 1 << (val % 8)
	case 1:
		out[i] = val
	case 2:
		out = out[:i] // truncated
	case 3:
		out = slices.Insert(out, i, val)
	case 4:
		out = slices.Delete(out, i, i+1)
	case 5:
		out[i] |= 0x80 // a varint that runs on into its neighbour
	case 6:
		out = append(out, val) // trailing garbage
	}
	return out
}

// fuzzWidths straddle the bitmap's word size. No bank of width 0: none
// can be installed, and the reference sends one in full or as an empty
// delta by whether its base slice was ever allocated — an accident the
// sparse encoder does not reproduce (TestCodecAtWordBoundaries decodes
// them).
var fuzzWidths = []int{1, 7, 63, 64, 65, 100, 130}

// snapshotLife drives a seeded life of one switch's bank set through
// the sparse codec and the dense reference side by side: windows of
// traffic that set, change and clear registers; banks rewidened,
// reseeded, removed and added; reconnects; frames lost on the way;
// captures shorter and longer than their width; frames corrupted in
// transit (by the seed, and by patch: three bytes a corruption); frames
// from another encoder, naming a bank twice. Every frame the sparse
// encoder writes must be the reference's byte for byte, and every frame
// either decoder is shown must get the same answer from both.
func snapshotLife(t *testing.T, seed int64, every int, patch []byte) {
	rng := rand.New(rand.NewSource(seed))
	enc, ref := &SnapshotEncoder{KeyframeEvery: every}, &denseEncoder{KeyframeEvery: every}
	dec := &decoderPair{}
	width := func() int { return fuzzWidths[rng.Intn(len(fuzzWidths))] }
	banks := genBanks(rng, 1+rng.Intn(5), width())
	nextRow := len(banks)
	// A corrupted frame can still be a valid one (the stream's CRC is not
	// in play here): once a decoder has accepted one, what it holds is no
	// longer what the encoder sent, until a keyframe replaces it.
	poisoned := false
	hostile := func(what string, frame []byte) {
		if class, _ := dec.feed(t, what, frame); class == "ok" {
			poisoned = true
		}
	}

	for epoch := uint32(1); epoch <= 24; epoch++ {
		// The window's traffic: a Bloom bank's registers are its bits, set
		// where the traffic writes a nonzero value.
		for i := range banks {
			b := &banks[i]
			w := int(b.Width)
			switch rng.Intn(10) {
			case 0:
				emptyRegs(b)
			case 1:
				for j := 0; j < w; j++ {
					setReg(b, j, 1+rng.Uint32()>>uint(rng.Intn(32)))
				}
			default:
				for j := 0; j < w/6+1 && w > 0; j++ {
					setReg(b, rng.Intn(w), rng.Uint32()>>uint(rng.Intn(32)))
					setReg(b, rng.Intn(w), 0)
				}
			}
		}
		// What happens to the bank set between windows.
		switch i := rng.Intn(len(banks)); rng.Intn(14) {
		case 0: // resized
			w := width()
			banks[i].Width = uint32(w)
			emptyRegs(&banks[i])
			for j := 0; j < w; j++ {
				setReg(&banks[i], j, uint32(rng.Intn(3)))
			}
		case 1: // reseeded: same shape, incomparable values
			banks[i].Seed++
		case 2:
			if len(banks) > 1 {
				banks = slices.Delete(banks, i, i+1)
			}
		case 3:
			added := genBanks(rng, 1, width())[0]
			added.Row, nextRow = nextRow, nextRow+1
			banks = append(banks, added)
		case 4: // reconnect: grounded encoders, a peer with no state
			enc.Reset()
			ref.Reset()
			dec, poisoned = &decoderPair{}, false
		}

		// The capture: now and then a bank's slice is shorter than its width
		// (it reads zero-padded) or longer (it is cut: the one place the
		// sparse encoder differs on purpose — the reference encodes the
		// excess, and every decoder then refuses the frame — so the
		// reference is shown the cut slice). A Bloom bank's bitmap is short
		// by whole words, and long by bits past its width in its last word
		// and by words after it.
		sent, truth := slices.Clone(banks), cloneBanks(banks)
		for i := range sent {
			b := &sent[i]
			switch cut := rng.Intn(8); {
			case cut == 0 && b.Kind == modules.BankBloomRow:
				b.Bits = b.Bits[:rng.Intn(len(b.Bits)+1)]
				clear(truth[i].Bits[len(b.Bits):])
			case cut == 0:
				b.Values = b.Values[:rng.Intn(len(b.Values)+1)]
				clear(truth[i].Values[len(b.Values):])
			case cut == 1 && b.Kind == modules.BankBloomRow:
				b.Bits = append(slices.Clone(b.Bits), 5, 0, 6)
				if tail := b.Width % 64; tail != 0 {
					b.Bits[len(b.Bits)-4] |= ^uint64(0) << tail
				}
			case cut == 1:
				b.Values = append(slices.Clone(b.Values), 5, 0, 6)
			}
		}
		sentRef := denseView(sent)
		for i := range sentRef {
			if len(sentRef[i].Values) > int(sentRef[i].Width) {
				sentRef[i].Values = sentRef[i].Values[:sentRef[i].Width]
			}
		}
		payload, flags := enc.Encode(nil, epoch, sent)
		want, wantFlags := ref.Encode(nil, epoch, sentRef)
		if !bytes.Equal(payload, want) || flags != wantFlags {
			t.Fatalf("seed %d every %d epoch %d: frame (%d B, flags %b) differs from the dense encoder's (%d B, flags %b)",
				seed, every, epoch, len(payload), flags, len(want), wantFlags)
		}

		// Hostile frames arrive first: whatever they do to a decoder's
		// state, they must do to both.
		if rng.Intn(3) == 0 {
			hostile("corrupted frame", mutate(payload, byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256))))
		}
		if len(patch) >= 3 {
			hostile("patched frame", mutate(payload, patch[0], patch[1], patch[2]))
			patch = patch[3:]
		}
		if rng.Intn(12) == 0 && len(banks) > 1 {
			// Another encoder's keyframe and delta, the delta naming a bank
			// twice: both decoders resolve it to its last mention.
			var other SnapshotEncoder
			key, _ := other.Encode(nil, epoch+100, banks)
			twice := append(slices.Clone(banks), banks[rng.Intn(len(banks))])
			delta, _ := other.Encode(nil, epoch+101, twice)
			hostile("interloper keyframe", key)
			hostile("interloper delta", delta)
		}
		if rng.Intn(10) == 0 {
			continue // lost on the way: the chain is broken until the next keyframe, for both
		}
		if class, got := dec.feed(t, "frame", payload); class == "ok" {
			if flags&FlagDelta == 0 {
				poisoned = false
			}
			if !poisoned {
				checkBanksEqual(t, truth, got)
			}
		}
	}
}

// FuzzSnapshotVsDense is the differential oracle for the sparse codec
// (the vs-prev idiom: the implementation it replaced, kept as the
// reference, on the same generated input). See snapshotLife.
func FuzzSnapshotVsDense(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed, uint8(seed), []byte{byte(seed), byte(seed * 37), 0xFF, 2, 9, 0, 5, 30, 0x80})
	}
	f.Fuzz(func(t *testing.T, seed int64, every uint8, patch []byte) {
		snapshotLife(t, seed, 1+int(every%8), patch)
	})
}

// TestSnapshotVsDenseLives runs the oracle over a fixed spread of seeds
// at every keyframe cadence, so plain `go test` covers what a fuzzing
// run starts from.
func TestSnapshotVsDenseLives(t *testing.T) {
	for seed := int64(100); seed < 400; seed++ {
		snapshotLife(t, seed, 1+int(seed%8), nil)
	}
}
