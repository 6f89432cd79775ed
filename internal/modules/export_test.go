package modules

// PinFlowTablesToOneSet shrinks every lane's flow table to a single
// set of flowWays slots and stops it growing, so that any trace with
// more concurrent flows than that evicts on nearly every packet.
func (e *Engine) PinFlowTablesToOneSet() {
	for _, l := range e.lanes {
		l.flows.limit = flowWays
		l.flows.resize(flowWays, l.flows.stride)
	}
}

// FlowTableLimit is the slot count at which a lane's table stops
// doubling.
const FlowTableLimit = maxFlowSlots
