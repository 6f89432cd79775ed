package modules

import (
	"slices"

	"github.com/newton-net/newton/internal/fields"
	"github.com/newton-net/newton/internal/sketch"
)

// BankKind classifies what sketch structure a state-bank allocation
// realizes, which decides how the analyzer merges per-switch copies.
type BankKind int

const (
	// BankCMSRow is one Count-Min row (reduce): merge by counter-wise sum.
	BankCMSRow BankKind = iota
	// BankBloomRow is one Bloom hash row (distinct): merge by bitwise OR.
	BankBloomRow
)

// String names the bank kind.
func (k BankKind) String() string {
	if k == BankBloomRow {
		return "bloom"
	}
	return "cms"
}

// BankSnapshot is one query sketch row's register allocation captured at
// an epoch boundary, together with the hash configuration that addressed
// it — everything the network-wide analyzer needs to merge per-switch
// copies counter-wise and answer point queries against the merged bank.
type BankSnapshot struct {
	QueryID int      `json:"qid"`
	Part    int      `json:"part"` // cross-switch partition slot, 0 when unpartitioned
	Branch  int      `json:"branch"`
	Row     int      `json:"row"`
	Kind    BankKind `json:"kind"`

	// Algo/Seed/Range reproduce the governing H module; a key's register
	// is Fold(Algo.Sum(keyBytes, Seed), Range) % Width, exactly the
	// engine's index computation. KeyMask serializes the operation keys
	// into keyBytes.
	Algo    sketch.Algo `json:"algo"`
	Seed    uint32      `json:"seed"`
	Range   uint32      `json:"range"`
	KeyMask fields.Mask `json:"key_mask"`

	// OwnerIndex/OwnerCount record key sharding (§5.1): with sharding
	// active each key's counters live on exactly one switch, so summed
	// banks equal a single unsharded switch's bank.
	OwnerIndex uint32 `json:"owner_index"`
	OwnerCount uint32 `json:"owner_count"`

	// Width is the row's register count. A Count-Min row's registers are
	// Values, one word each; a Bloom row's are Bits, bit i%64 of word
	// i/64 (⌈Width/64⌉ words, nothing set past Width), and Values is nil.
	Width  uint32   `json:"width"`
	Values []uint32 `json:"values"`
	Bits   []uint64 `json:"bits,omitempty"`
}

// Slot returns the register index that the given serialized operation
// keys hash to — the engine's H-then-S index computation replayed.
func (b *BankSnapshot) Slot(keyBytes []byte) uint32 {
	h := b.Algo.Sum(keyBytes, b.Seed)
	var folded uint32
	if b.Range > 0 {
		folded = sketch.Fold(h, b.Range)
	} else {
		folded = h
	}
	return folded % b.Width
}

// SnapshotBanks captures every installed query's state-bank allocations
// at the current epoch — the epoch-boundary export hook of the streaming
// telemetry plane. Call it just before RollEpoch: rolled epochs read
// as zero, so the ending window's state is only observable before the
// roll. Cross-branch reads and pass-through ops own no
// registers and are skipped.
//
// The result is freshly allocated and the caller's to keep: LiveBanks
// with a copy of each bank's registers.
func (e *Engine) SnapshotBanks() []BankSnapshot {
	banks := e.LiveBanks(nil)
	for i := range banks {
		b := &banks[i]
		b.Values, b.Bits = slices.Clone(b.Values), slices.Clone(b.Bits)
	}
	return banks
}

// LiveBanks is the walk SnapshotBanks copies, with each bank's Values
// or Bits the live registers themselves: read-only, and valid only under
// the barrier the capture needs — before the next RollEpoch, Install or
// Remove, never beside packet processing. dst's elements are overwritten
// from the front and dst is returned resliced to the banks found
// (elements past them are cleared, so a removed query's registers are
// not retained). Programs are walked in (qid, partition) order, branches
// and rows ascending, so between installs bank i is the same bank every
// epoch and a kept dst allocates nothing.
func (e *Engine) LiveBanks(dst []BankSnapshot) []BankSnapshot {
	dst = dst[:cap(dst)]
	n := 0
	for _, p := range e.installed {
		for bi, b := range p.Branches {
			// Walk the chain tracking each metadata set's governing K and
			// H configs, mirroring runBranch's dataflow.
			var curK [2]*KConfig
			var curH [2]*HConfig
			row := 0
			for _, op := range b.Ops {
				set := op.Set & 1
				switch op.Kind {
				case ModK:
					curK[set] = op.K
				case ModH:
					curH[set] = op.H
				case ModS:
					if !op.OwnsRegisters() {
						continue
					}
					s := op.S
					if n == len(dst) {
						dst = append(dst, BankSnapshot{})
					}
					snap := &dst[n]
					n++
					*snap = BankSnapshot{
						QueryID:    p.QID,
						Part:       p.Part,
						Branch:     bi,
						Row:        row,
						OwnerIndex: s.OwnerIndex,
						OwnerCount: s.OwnerCount,
						Width:      s.width,
					}
					if s.bits != nil {
						snap.Kind, snap.Bits = BankBloomRow, s.bits.Words()
					} else {
						snap.Values = s.array.Registers()
					}
					if h := curH[set]; h != nil {
						snap.Algo, snap.Seed, snap.Range = h.Algo, h.Seed, h.Range
					}
					if k := curK[set]; k != nil {
						snap.KeyMask = k.Mask
					}
					row++
				}
			}
		}
	}
	clear(dst[n:])
	return dst[:n]
}
