package main

import (
	"fmt"
	"net"
	"time"

	"github.com/newton-net/newton/internal/controller"
	"github.com/newton-net/newton/internal/dataplane"
	"github.com/newton-net/newton/internal/modules"
	"github.com/newton-net/newton/internal/orchestrator"
	"github.com/newton-net/newton/internal/rpc"
	"github.com/newton-net/newton/internal/scheduler"
	"github.com/newton-net/newton/internal/telemetry"
	"github.com/newton-net/newton/internal/topology"
)

// waitLimit bounds every wait for the fleet to answer (an alert, a
// merged snapshot). Passing it is a failed operation, not a slow one.
const waitLimit = 2 * time.Second

// node is one switch of the fleet with everything cmd/newton-agent
// wires around it.
type node struct {
	name  string
	sw    *dataplane.Switch
	eng   *modules.Engine
	agent *rpc.Agent
	cli   *rpc.Client
	exp   *telemetry.Exporter
}

// fleet is the system under test, assembled the way a deployment is:
// one engine + control agent + telemetry exporter per switch, one
// analyzer service, and the controller and orchestrator on top, every
// hop over host-loopback TCP.
type fleet struct {
	nodes []*node
	svc   *telemetry.Service
	ctl   *controller.Remote
	orch  *orchestrator.Orchestrator

	events <-chan telemetry.Event
	cancel func()
}

// newFleet builds and connects a fresh fleet and converges the
// workload's base intents onto it.
func newFleet(d *dials, seed int64) (*fleet, error) {
	f := &fleet{svc: telemetry.NewService(telemetry.ServiceConfig{
		Window: window, KeepEpochs: d.keepEpochs})}
	ok := false
	defer func() {
		if !ok {
			f.close()
		}
	}()
	svcLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	go f.svc.Serve(svcLn) // returns when svc.Close closes the listener
	// The subscription must hold a whole cycle's alerts — the driver only
	// drains it between steps — and flood raises about a thousand. (An
	// event is some 600 bytes, so the buffer is not made larger than
	// that needs; an overflow is counted and fails the run.)
	f.events, f.cancel = f.svc.Subscribe(4096)

	topo, _, _ := topology.Linear(d.switches)
	clients := map[string]*rpc.Client{}
	budgets := map[string]scheduler.Budget{}
	for i, id := range topo.Switches() {
		n := &node{name: topo.Node(id).Name}
		f.nodes = append(f.nodes, n)
		layout, err := modules.NewLayout(modules.LayoutCompact, d.stages, d.arraySize)
		if err != nil {
			return nil, err
		}
		n.eng = modules.NewEngine(layout)
		n.eng.SetWorkers(1)
		n.sw = dataplane.NewSwitch(n.name, d.stages, modules.StageCapacity())
		n.sw.SetLanes(1)
		if err := n.sw.AddRoute(0, 0, 1); err != nil {
			return nil, err
		}
		n.sw.Monitor = n.eng

		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		n.agent = rpc.NewAgent(n.sw, n.eng)
		go n.agent.Serve(ln) // returns when agent.Close closes the listener
		n.cli, err = rpc.DialOptions(ln.Addr().String(), rpc.Options{
			Timeout: waitLimit, Retries: 3, Seed: seed + int64(i)})
		if err != nil {
			return nil, err
		}
		clients[n.name] = n.cli
		n.exp, err = telemetry.DialAttached(svcLn.Addr().String(), telemetry.ExporterConfig{
			SwitchID: n.name, Policy: telemetry.PolicyBlock, Codec: telemetry.CodecBinary,
		}, n.agent, n.eng)
		if err != nil {
			return nil, err
		}
		budgets[n.name] = scheduler.Budget{
			Stages: d.stages, ArraySize: d.arraySize, RulesPerModule: 256}
	}

	f.ctl = controller.NewRemote(clients, seed)
	f.ctl.AttachTelemetry(f.svc)
	f.orch, err = orchestrator.New(orchestrator.Config{Topo: topo, Budgets: budgets}, f.ctl)
	if err != nil {
		return nil, err
	}
	f.orch.SetIntents(d.intents(d))
	plan, _, err := f.orch.Converge()
	if err != nil {
		return nil, err
	}
	for _, qp := range plan.Queries {
		if !qp.Admitted {
			return nil, fmt.Errorf("base intent %s rejected: %s", qp.Intent.Query.Name, qp.Reason)
		}
		if qp.Width != d.width {
			return nil, fmt.Errorf("base intent %s admitted at width %d, want %d",
				qp.Intent.Query.Name, qp.Width, d.width)
		}
	}
	ok = true
	return f, nil
}

// close tears the fleet down and returns once every goroutine it
// started has ended: exporters flush and say bye, agents and the
// service close their listeners and wait for their handlers.
func (f *fleet) close() {
	for _, n := range f.nodes {
		if n.exp != nil {
			n.exp.Close()
		}
		if n.cli != nil {
			n.cli.Close()
		}
		if n.agent != nil {
			n.agent.Close()
		}
	}
	if f.cancel != nil {
		f.cancel()
	}
	f.svc.Close()
}
