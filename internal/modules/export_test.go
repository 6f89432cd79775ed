package modules

import "math/bits"

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
