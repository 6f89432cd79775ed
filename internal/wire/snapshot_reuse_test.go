package wire

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math/rand"
	"runtime"
	"testing"

	"github.com/newton-net/newton/internal/modules"
)

// goldenEpochFrames is the SHA-256 over the 32 frames (flags, length,
// payload) TestSnapshotFramesGolden encodes, recorded from the encoder
// as it was before it kept its buffers (commit 88557e6): reusing value
// slices must not move a byte on the wire.
const goldenEpochFrames = "2fc61c25ea8105cc8f9ab70ca8b97eb48cc9851667dd0ccecf336164628740ae"

// cloneBanks deep-copies a bank set.
func cloneBanks(banks []modules.BankSnapshot) []modules.BankSnapshot {
	out := make([]modules.BankSnapshot, len(banks))
	for i, b := range banks {
		b.Values = append([]uint32(nil), b.Values...)
		out[i] = b
	}
	return out
}

// TestSnapshotFramesGolden drives one encoder and one decoder through a
// seeded 32-epoch life of a bank set — keyframes every 8, deltas
// between, a bank rewidened, a bank removed, a reconnect (encoder Reset,
// fresh decoder), a dropped frame — the way the exporter does: every
// epoch's banks are captured into the same buffers, overwritten in
// place. The frames must be byte for byte what the parent's encoder
// wrote, and what the decoder hands back must equal what went in at
// every epoch, which it only does if neither side's kept buffers alias
// the caller's or each other's.
func TestSnapshotFramesGolden(t *testing.T) {
	rng := rand.New(rand.NewSource(1606))
	enc := &SnapshotEncoder{}
	dec := &SnapshotDecoder{}
	banks := genBanks(rng, 6, 96) // the capture buffer: reused every epoch
	sum := sha256.New()

	var lastGot, lastWant []modules.BankSnapshot
	broken := false
	for epoch := uint32(1); epoch <= 32; epoch++ {
		// The window's traffic: overwrite the capture buffer in place.
		for i := range banks {
			vals := banks[i].Values
			for j := 0; j < len(vals)/12+1; j++ {
				vals[rng.Intn(len(vals))] = uint32(rng.Intn(1 << 16))
			}
			if banks[i].Kind == modules.BankCMSRow && rng.Intn(4) == 0 {
				vals[rng.Intn(len(vals))] = 0 // a counter that stayed quiet this window
			}
		}
		switch epoch {
		case 7: // a resize: bank 2 comes back wider, its old buffer too small
			banks[2].Width, banks[2].Range = 160, 160
			banks[2].Values = make([]uint32, 160)
			banks[2].Values[rng.Intn(160)] = 9
		case 13: // a removed query: bank 4 leaves the capture
			banks = append(banks[:4], banks[5:]...)
		case 22: // reconnect: the encoder grounds a stream a new decoder reads
			enc.Reset()
			dec = &SnapshotDecoder{}
			lastGot = nil
		}

		payload, flags := enc.Encode(nil, epoch, banks)
		var hdr [5]byte
		hdr[0] = byte(flags)
		binary.LittleEndian.PutUint32(hdr[1:], uint32(len(payload)))
		sum.Write(hdr[:])
		sum.Write(payload)

		wantKey := epoch == 1 || epoch == 9 || epoch == 17 || epoch == 22 || epoch == 30
		if (flags&FlagDelta == 0) != wantKey {
			t.Fatalf("epoch %d: keyframe = %v, want %v", epoch, flags&FlagDelta == 0, wantKey)
		}
		if epoch == 27 {
			broken = true // the frame is lost on the way
			continue
		}
		gotEpoch, got, err := dec.Decode(payload)
		if broken && !wantKey {
			if !errors.Is(err, ErrDeltaBase) {
				t.Fatalf("epoch %d after a lost frame: %v, want ErrDeltaBase", epoch, err)
			}
			continue
		}
		broken = false
		if err != nil || gotEpoch != epoch {
			t.Fatalf("epoch %d: decoded epoch %d, err %v", epoch, gotEpoch, err)
		}
		got = decoded(dec, got)
		checkBanksEqual(t, banks, got)
		// A caller that copied the previous result still holds the
		// previous epoch: this Decode wrote into other memory than the
		// copy, and the copy was taken of an intact result.
		if lastGot != nil {
			checkBanksEqual(t, lastWant, lastGot)
		}
		lastGot, lastWant = got, cloneBanks(banks)
	}
	if got := hex.EncodeToString(sum.Sum(nil)); got != goldenEpochFrames {
		t.Fatalf("frames hash to %s, want %s", got, goldenEpochFrames)
	}
}

// TestSnapshotCodecKeepsItsBuffers: once a bank set is stable, neither
// side allocates per epoch — each fills its spare set from the frame
// and the two sets change places — although every bank here gains a
// nonzero register an epoch: a set that outgrows its first, exact
// allocation grows by a quarter, not by one. And what the two ends hold
// for it follows the registers that are set, not the banks' width.
func TestSnapshotCodecKeepsItsBuffers(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	banks := genBanks(rng, 8, 4096) // ~470 of 4096 registers set in each
	raw := 8 * 4096 * 4

	enc := &SnapshotEncoder{}
	dec := &SnapshotDecoder{}
	var payload []byte
	epoch := uint32(0)
	step := func() {
		epoch++
		for i := range banks {
			banks[i].Values[rng.Intn(4096)]++
		}
		payload, _ = enc.Encode(payload[:0], epoch, banks)
		if _, got, err := dec.Decode(payload); err != nil {
			t.Fatal(err)
		} else if len(got) != len(banks) {
			t.Fatalf("decoded %d banks", len(got))
		}
	}
	// Each side's two sets are made in frames 1 and 2 at the population
	// they then hold, and outgrow it once: the decoder's in frames 3 and
	// 4, the encoder's — made with a word's room to pack into — by frame
	// 20. The next time is a quarter more registers away.
	for i := 0; i < 24; i++ {
		step()
	}
	const epochs = 32 // four keyframes among them
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < epochs; i++ {
		step()
	}
	runtime.ReadMemStats(&m1)
	// Measured: 0 B and 0 objects an epoch, as with the dense bases this
	// codec held before (commit 4081355); the codec that cloned its bases
	// made 266 KB in 29 objects (8 banks x 16 KB, on each side).
	if perEpoch := (m1.TotalAlloc - m0.TotalAlloc) / epochs; perEpoch > uint64(raw/100) {
		t.Errorf("a steady epoch allocates %d B, over 1%% of the banks' %d", perEpoch, raw)
	}
	if perEpoch := (m1.Mallocs - m0.Mallocs) / epochs; perEpoch > 2 {
		t.Errorf("a steady epoch allocates %d objects", perEpoch)
	}
	// Measured: 50 KB at the encoder, 46 KB at the decoder, for 131 KB of
	// registers an eighth full; the dense bases were 131 KB and 262 KB.
	t.Logf("held for %d B of registers: encoder %d B, decoder %d B", raw, enc.HeldBytes(), dec.HeldBytes())
	if held := enc.HeldBytes(); held > raw/2 {
		t.Errorf("the encoder holds %d B for %d B of registers an eighth full", held, raw)
	}
	if held := dec.HeldBytes(); held > raw/2 {
		t.Errorf("the decoder holds %d B for %d B of registers an eighth full", held, raw)
	}
}
