package main

import (
	"github.com/newton-net/newton/internal/netsim"
	"github.com/newton-net/newton/internal/packet"
	"github.com/newton-net/newton/internal/rpc"
	"github.com/newton-net/newton/internal/topology"
)

// replaySwitch is the agent's switch: the one node of a one-switch
// netsim network, served by a control agent whose NextEpoch is the
// node's window end. The network's virtual clock ends the switch's
// windows, and its DeliverBatch shards the replay over the lanes.
type replaySwitch struct {
	network *netsim.Network
	node    *netsim.Node
	agent   *rpc.Agent
	h1, h2  int
}

func newReplaySwitch(name string, cfg netsim.Config) (*replaySwitch, error) {
	topo, h1, h2 := topology.Linear(1)
	n, err := netsim.New(topo, cfg)
	if err != nil {
		return nil, err
	}
	node := n.Node(topo.Switches()[0])
	node.DP.ID = name
	agent := rpc.NewAgent(node.DP, node.Eng)
	node.EndWindow = agent.NextEpoch
	return &replaySwitch{network: n, node: node, agent: agent, h1: h1, h2: h2}, nil
}

// replayLoop runs pkts through the switch once, as one DeliverBatch. The
// packets' timestamps are rebased in place so that the window holding
// the earliest one starts at the network's clock, which is where the
// previous loop's last window ended: the virtual clock only moves
// forward. The loop's last window is ended before it returns, so a loop
// ends as many windows as its packets span.
func (r *replaySwitch) replayLoop(pkts []*packet.Packet) {
	if len(pkts) == 0 {
		return
	}
	lo, hi := pkts[0].TS, pkts[0].TS
	for _, p := range pkts {
		lo, hi = min(lo, p.TS), max(hi, p.TS)
	}
	w := uint64(r.network.Cfg.Window)
	first, start := lo/w*w, r.network.Clock()
	for _, p := range pkts {
		p.TS = p.TS - first + start
	}
	r.network.DeliverBatch(pkts, r.h1, r.h2)
	r.network.AdvanceTo(start + (hi-first)/w*w + w)
}
