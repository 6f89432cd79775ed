package wire

import (
	"bytes"
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"github.com/newton-net/newton/internal/modules"
)

// sortBanks puts a bank set in the engine's walk order.
func sortBanks(banks []modules.BankSnapshot) {
	slices.SortFunc(banks, func(a, b modules.BankSnapshot) int {
		return cmp.Or(cmp.Compare(a.QueryID, b.QueryID), cmp.Compare(a.Part, b.Part),
			cmp.Compare(a.Branch, b.Branch), cmp.Compare(a.Row, b.Row))
	})
}

// TestReplayIsTheLastCapture: over seeded lives of a bank set — traffic,
// a query removed, a bank reconfigured, outages during which captures
// are packed and committed but never written, reconnects — the keyframe
// Replay re-emits from the held sets is byte for byte the keyframe a
// fresh encoder writes of the last capture, a fresh decoder grounded on
// it holds that capture, and the delta chain resumes on it.
func TestReplayIsTheLastCapture(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		enc := &SnapshotEncoder{KeyframeEvery: 1 + int(seed%8)}
		dec := &SnapshotDecoder{}
		banks := genBanks(rng, 1+rng.Intn(8), fuzzWidths[rng.Intn(len(fuzzWidths))])
		sortBanks(banks)
		var last []modules.BankSnapshot
		var lastEpoch uint32
		down := false
		for epoch := uint32(1); epoch <= 24; epoch++ {
			banks = evolve(rng, banks) // a reseeded bank now and then: a config change
			if qid := banks[rng.Intn(len(banks))].QueryID; rng.Intn(6) == 0 && banks[0].QueryID != banks[len(banks)-1].QueryID {
				banks = slices.DeleteFunc(banks, func(b modules.BankSnapshot) bool { return b.QueryID == qid })
			}
			payload, _ := enc.Encode(nil, epoch, banks)
			last, lastEpoch = cloneBanks(banks), epoch
			if !down && rng.Intn(6) == 0 {
				down = true // this frame's write fails
			}
			if down {
				enc.Reset()
				if rng.Intn(3) != 0 {
					continue // still down: the next capture is packed, not sent
				}
			} else {
				if _, got, err := dec.Decode(payload); err != nil {
					t.Fatalf("seed %d epoch %d: %v", seed, epoch, err)
				} else {
					checkBanksEqual(t, last, decoded(dec, got))
				}
				if rng.Intn(5) != 0 {
					continue
				}
				enc.Reset() // a reconnect with the stream up
			}

			down = false
			replay := enc.Replay(nil)
			want, _ := new(SnapshotEncoder).Encode(nil, lastEpoch, last)
			if !bytes.Equal(replay, want) {
				t.Fatalf("seed %d epoch %d: the replay (%d B) is not the keyframe of the last capture (%d B)", seed, epoch, len(replay), len(want))
			}
			dec = &SnapshotDecoder{}
			got, gotBanks, err := dec.Decode(replay)
			if err != nil || got != lastEpoch {
				t.Fatalf("seed %d epoch %d: replay decodes to epoch %d, %v", seed, epoch, got, err)
			}
			checkBanksEqual(t, last, decoded(dec, gotBanks))
		}
	}
}
