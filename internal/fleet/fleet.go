// Package fleet stands a whole Newton deployment up in one process. It
// is the one place that decides how a switch is wired into a fleet: a
// netsim.Network, one rpc.Agent per switch served over net.Pipe or
// loopback TCP, one rpc.Client per agent, optionally one
// telemetry.Exporter per switch streaming into one telemetry.Service,
// and a controller.Remote over the clients. The netsim clock and the
// controller's Tick both end a window in the agent's NextEpoch: reports,
// then banks, then the roll. An orchestrator is one line
// at the caller — orchestrator.New(Config{Topo, Budgets: f.Budgets()},
// f.Ctl) — so its own tests can build on this package.
//
// A round of a fleet run ends on Accounted, the barrier at which the
// analyzer has counted every frame each switch's exporter wrote. A Fleet
// is driven from one goroutine: Kill, Restart, Accounted and Close must
// not overlap each other, a delivery, or a control call to the same
// switch.
package fleet

import (
	"fmt"
	"net"
	"sync"

	"github.com/newton-net/newton/internal/controller"
	"github.com/newton-net/newton/internal/modules"
	"github.com/newton-net/newton/internal/netsim"
	"github.com/newton-net/newton/internal/rpc"
	"github.com/newton-net/newton/internal/scheduler"
	"github.com/newton-net/newton/internal/telemetry"
	"github.com/newton-net/newton/internal/topology"
)

// Config is what callers build differently; the rest of the wiring is
// the same for all of them and lives in New.
type Config struct {
	// Net sizes every switch (stages, registers a bank, window, lanes).
	Net netsim.Config
	// TCP serves every agent and the service on loopback listeners, where
	// a restarted switch listens on the address it had; otherwise
	// net.Pipe ends are handed to HandleConn: no sockets, no ports.
	TCP bool
	// RPC hardens every client. Switch i's jitter seed is RPC.Seed + i;
	// the controller's is RPC.Seed, or 1 (every experiment's default) for 0.
	RPC rpc.Options
	// Exporter, when non-nil, gives every switch an exporter built from
	// it (SwitchID and Redial are the fleet's) streaming into one
	// Service built from Service, which the controller then collects from.
	Exporter *telemetry.ExporterConfig
	Service  telemetry.ServiceConfig
	// Wrap, when set, wraps the switch end of every connection: the
	// control connections a switch's agent serves and the telemetry
	// streams its exporter opens. Fault injectors and byte counters go
	// here.
	Wrap func(name string, c net.Conn) net.Conn
}

// Fleet is a running deployment.
type Fleet struct {
	Net      *netsim.Network
	Ctl      *controller.Remote
	Svc      *telemetry.Service // nil without Config.Exporter
	Names    []string           // switch names in topology order
	Switches map[string]*Switch

	cfg     Config
	svcAddr string         // TCP only
	wg      sync.WaitGroup // every goroutine the fleet starts: Close waits for them
}

// Switch is one fleet member. Node keeps its data plane for life and
// gets a new layout and engine at every Restart, which also replaces
// Exporter (nil without telemetry).
type Switch struct {
	Name     string
	Node     *netsim.Node
	Client   *rpc.Client
	Exporter *telemetry.Exporter

	addr  string // TCP only: where the agent listens, kept across restarts
	agent *rpc.Agent
	sent  uint64 // frames the switch's earlier exporters wrote
}

// New builds the fleet over topo and brings every switch up.
func New(topo *topology.Topology, cfg Config) (f *Fleet, err error) {
	n, err := netsim.New(topo, cfg.Net)
	if err != nil {
		return nil, err
	}
	if cfg.Wrap == nil {
		cfg.Wrap = func(_ string, c net.Conn) net.Conn { return c }
	}
	f = &Fleet{Net: n, Switches: map[string]*Switch{}, cfg: cfg}
	defer func() {
		if err != nil {
			f.Close()
		}
	}()
	if f.cfg.Exporter != nil {
		f.Svc = telemetry.NewService(f.cfg.Service)
		if f.cfg.TCP {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				return nil, err
			}
			f.svcAddr = ln.Addr().String()
			f.spawn(func() { _ = f.Svc.Serve(ln) })
		}
	}
	clients := map[string]*rpc.Client{}
	for i, id := range topo.Switches() {
		sw := &Switch{Name: topo.Node(id).Name, Node: f.Net.Node(id), addr: "127.0.0.1:0"}
		f.Names = append(f.Names, sw.Name)
		f.Switches[sw.Name] = sw
		if err := f.up(sw); err != nil {
			return nil, err
		}
		redial := func() (net.Conn, error) { return f.dialAgent(sw) }
		conn, err := redial()
		if err != nil {
			return nil, err
		}
		opts := f.cfg.RPC
		opts.Seed += int64(i)
		sw.Client = rpc.NewClientOptions(conn, opts, redial)
		clients[sw.Name] = sw.Client
	}
	f.Ctl = controller.NewRemote(clients, max(f.cfg.RPC.Seed, 1))
	if f.Svc != nil {
		f.Ctl.AttachTelemetry(f.Svc)
	}
	return f, nil
}

// spawn runs fn on a goroutine Close waits for.
func (f *Fleet) spawn(fn func()) {
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		fn()
	}()
}

// wrapListener applies the fleet's Wrap to every accepted connection.
type wrapListener struct {
	net.Listener
	f    *Fleet
	name string
}

func (l wrapListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.f.cfg.Wrap(l.name, c), nil
}

// up gives sw an agent over its node's current engine, the netsim clock
// included, serves it, and (with telemetry) attaches a new exporter.
func (f *Fleet) up(sw *Switch) error {
	sw.agent = rpc.NewAgent(sw.Node.DP, sw.Node.Eng)
	sw.Node.EndWindow = sw.agent.NextEpoch
	if f.cfg.TCP {
		ln, err := net.Listen("tcp", sw.addr)
		if err != nil {
			return fmt.Errorf("fleet: switch %s: %w", sw.Name, err)
		}
		sw.addr = ln.Addr().String()
		agent := sw.agent
		f.spawn(func() { _ = agent.Serve(wrapListener{ln, f, sw.Name}) })
	}
	if f.cfg.Exporter == nil {
		return nil
	}
	if sw.Exporter != nil {
		n, _ := sw.Exporter.Frames()
		sw.sent += n
	}
	ecfg := *f.cfg.Exporter
	ecfg.SwitchID = sw.Name
	ecfg.Redial = func() (net.Conn, error) { return f.dialService(sw.Name) }
	conn, err := ecfg.Redial()
	if err == nil {
		if sw.Exporter, err = telemetry.NewExporter(conn, ecfg); err != nil {
			conn.Close()
		}
	}
	if err != nil {
		return fmt.Errorf("fleet: switch %s: %w", sw.Name, err)
	}
	sw.Exporter.AttachAgent(sw.agent, sw.Node.Eng)
	return nil
}

// dialAgent opens a control connection to sw's current agent. A killed
// switch refuses it (TCP) or hangs up at once (Pipe).
func (f *Fleet) dialAgent(sw *Switch) (net.Conn, error) {
	if f.cfg.TCP {
		return net.Dial("tcp", sw.addr)
	}
	client, server := net.Pipe()
	agent := sw.agent
	f.spawn(func() { agent.HandleConn(f.cfg.Wrap(sw.Name, server)) })
	return client, nil
}

// dialService opens a telemetry stream from the named switch.
func (f *Fleet) dialService(name string) (net.Conn, error) {
	if f.cfg.TCP {
		c, err := net.Dial("tcp", f.svcAddr)
		if err != nil {
			return nil, err
		}
		return f.cfg.Wrap(name, c), nil
	}
	client, server := net.Pipe()
	f.spawn(func() { _ = f.Svc.HandleConn(server) })
	return f.cfg.Wrap(name, client), nil
}

// Budgets returns every switch's admission budget: the network's
// geometry and the engine's rule capacity per module.
func (f *Fleet) Budgets() map[string]scheduler.Budget {
	out := make(map[string]scheduler.Budget, len(f.Names))
	for _, name := range f.Names {
		out[name] = scheduler.Budget{Stages: f.Net.Cfg.Stages, ArraySize: f.Net.Cfg.ArraySize,
			RulesPerModule: modules.DefaultRulesPerModule}
	}
	return out
}

// Kill crashes the named switch's control and telemetry processes: its
// exporter closes, its agent stops listening and drops every
// connection. Packets still traverse the switch, as a data plane
// outlives its agent. Killing a dead switch is a no-op.
func (f *Fleet) Kill(name string) error {
	sw := f.Switches[name]
	if sw == nil {
		return fmt.Errorf("fleet: unknown switch %q", name)
	}
	if sw.Exporter != nil {
		sw.Exporter.Close()
	}
	sw.agent.Close()
	return nil
}

// Restart reboots the named switch: killed if it was not, it comes back
// at the same address with an empty engine of the network's geometry
// (netsim.Network.Reboot), a new agent and a new exporter. Its client
// redials into it; Ctl.Reconverge re-drives what it lost.
func (f *Fleet) Restart(name string) error {
	if err := f.Kill(name); err != nil {
		return err
	}
	sw := f.Switches[name]
	if err := f.Net.Reboot(sw.Node.ID); err != nil {
		return err
	}
	return f.up(sw)
}

// Accounted is the round barrier: it returns once the analyzer has
// accounted every frame each switch's exporter has written, a closed
// exporter's last frames and the end of its stream included, and fails
// naming the first switch still short when its wait reaches
// telemetry.AwaitTimeout.
func (f *Fleet) Accounted() error {
	if f.Svc == nil {
		return nil
	}
	for _, name := range f.Names {
		sw := f.Switches[name]
		if sw.Exporter == nil {
			continue
		}
		n, closed := sw.Exporter.Frames()
		if err := f.Svc.AwaitFrames(name, sw.sent+n, closed); err != nil {
			return err
		}
	}
	return nil
}

// Forget releases the analyzer's bookkeeping of a switch whose streams
// have all ended (telemetry.Service.ForgetAgent), and with it the frames
// the barrier expects of the switch until it restarts.
func (f *Fleet) Forget(name string) {
	if sw := f.Switches[name]; sw != nil && f.Svc != nil && f.Svc.ForgetAgent(name) {
		sw.Exporter, sw.sent = nil, 0
	}
}

// Close tears the fleet down: every switch's exporter and client, then
// the agents with their listeners, then the service, and returns once
// every goroutine the fleet started has run to its end; one that has
// called Done may not have exited yet. It is safe to call twice.
func (f *Fleet) Close() {
	for _, sw := range f.Switches {
		if sw.Exporter != nil {
			sw.Exporter.Close()
		}
		if sw.Client != nil {
			sw.Client.Close()
		}
	}
	for _, name := range f.Names {
		_ = f.Kill(name)
	}
	if f.Svc != nil {
		f.Svc.Close()
	}
	f.wg.Wait()
}
