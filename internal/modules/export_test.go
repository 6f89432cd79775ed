package modules

import (
	"math/bits"

	"github.com/newton-net/newton/internal/dataplane"
)

// PinFlowTablesToOneSet shrinks every lane's flow table to a single
// set of flowWays slots and stops it growing, so that any trace with
// more concurrent flows than that evicts on nearly every packet.
func (e *Engine) PinFlowTablesToOneSet() {
	for _, l := range e.lanes {
		l.flows.limit = flowWays
		l.flows.resize(flowWays)
	}
}

// FlowTableLimit is the slot count at which a lane's table stops
// doubling.
const FlowTableLimit = maxFlowSlots

// DropKeyCRCScratch takes the per-packet checksum scratch away from
// every lane the engine has now, so every H op takes execH's fallback:
// serialise the operation keys, hash the bytes. That path forced on is
// the oracle the cached one is compared with.
func (e *Engine) DropKeyCRCScratch() {
	for _, l := range e.lanes {
		l.keys.crc = nil
	}
}

// CachedKeyCRCs is how many masks' checksums the lane's last packet
// left in its scratch.
func (e *Engine) CachedKeyCRCs(lane int) int {
	return bits.OnesCount64(e.lanes[lane].keys.valid)
}

// WellFormed is the domain walk Install runs first.
func (p *Program) WellFormed() error { return p.wellFormed() }

// UseWordBloomRows rebinds every installed Bloom row to the row it was
// before Bloom rows became bitmaps — a 32-bit RegisterArray, one word a
// register, that the or op runs OpOr with the constant 1 on — and drops
// the bitmap. The engine's or ops then take the word path: the
// reference a bitmap engine is held to (TestBloomRowsMatchWordRows).
// LiveBanks reports a rebound row's registers in Values, as a
// BankCMSRow. The engine must not Remove a program after it.
func (e *Engine) UseWordBloomRows() {
	for _, p := range e.installed {
		for _, b := range p.Branches {
			for _, op := range b.Ops {
				if op.Kind == ModS && op.S.bits != nil {
					op.S.array, op.S.bits = dataplane.NewRegisterArray(op.S.width), nil
				}
			}
		}
	}
}
