package experiments

import (
	"fmt"
	"net"
	"time"

	"github.com/newton-net/newton/internal/controller"
	"github.com/newton-net/newton/internal/faults"
	"github.com/newton-net/newton/internal/fleet"
	"github.com/newton-net/newton/internal/netsim"
	"github.com/newton-net/newton/internal/query"
	"github.com/newton-net/newton/internal/rpc"
	"github.com/newton-net/newton/internal/topology"
	"github.com/newton-net/newton/internal/trace"
)

// ChaosConfig parameterizes the fault-recovery experiment.
type ChaosConfig struct {
	// Seed drives the trace, the fault injectors, and the client retry
	// jitter — the whole run is reproducible from it (default 1).
	Seed int64
}

const (
	chaosFlows    = 800                    // background traffic
	chaosDuration = 300 * time.Millisecond // trace length: three windows
	// chaosResetProb is the per-I/O probability of an injected
	// connection reset on every control channel.
	chaosResetProb = 0.05
)

// ChaosResult is the outcome of one chaos run: the report count of a
// fault-free reference, the count under injected resets plus an agent
// kill+restart, and the recovery bookkeeping.
type ChaosResult struct {
	Seed          int64
	Baseline      int     // reports collected fault-free
	WithFaults    int     // reports collected under faults + restart
	RecoveredPct  float64 // WithFaults / Baseline
	Resets        uint64  // injected connection resets
	Retries       uint64  // client call retries
	Redials       uint64  // client reconnects
	ReinstalledOK bool    // restarted agent converged back to the deploy
}

// chaosNet is one controller-over-TCP deployment of a 3-switch line,
// every agent behind its own fault injector.
type chaosNet struct {
	*fleet.Fleet
	h1, h2 int
	injs   map[string]*faults.Injector
}

// newInjectors gives every switch of topo its own fault injector,
// seeded seed + its index, for a fleet's Wrap hook to route through.
func newInjectors(topo *topology.Topology, seed int64, resetProb float64) map[string]*faults.Injector {
	injs := map[string]*faults.Injector{}
	for i, id := range topo.Switches() {
		injs[topo.Node(id).Name] = faults.New(faults.Config{Seed: seed + int64(i), ResetProb: resetProb})
	}
	return injs
}

func newChaosNet(cfg ChaosConfig, resetProb float64) *chaosNet {
	topo, h1, h2 := topology.Linear(3)
	cn := &chaosNet{h1: h1, h2: h2, injs: newInjectors(topo, cfg.Seed, resetProb)}
	f, err := fleet.New(topo, fleet.Config{
		Net: netsim.Config{Stages: 12, ArraySize: 1 << 14},
		TCP: true,
		RPC: rpc.Options{
			Timeout: 2 * time.Second, Retries: 16,
			BackoffBase: time.Millisecond, BackoffMax: 20 * time.Millisecond,
			Seed: cfg.Seed,
		},
		Wrap: func(name string, c net.Conn) net.Conn { return cn.injs[name].Conn(c) },
	})
	if err != nil {
		panic(err)
	}
	cn.Fleet = f
	return cn
}

// run pushes the trace through the line hop by hop (rolling epochs on
// the virtual clock), draining reports over the control channel as it
// goes. When restartAt is positive, the middle switch is restarted once
// the clock passes it — empty engine, same address, modeling a reboot
// that lost its installed queries. The client's automatic redial finds
// the new instance and the controller reconverges the deployment.
func (cn *chaosNet) run(tr *trace.Trace, restartAt uint64) (reports int, reinstalled bool) {
	_, _, err := cn.Ctl.Deploy(0, controller.Want{Query: query.Q1(40), Width: 1 << 12, Targets: cn.Names, Sharded: true})
	if err != nil {
		panic(err)
	}
	restarted := restartAt == 0
	mid := cn.Names[1]
	drain := func() {
		rs, err := cn.Ctl.Collect()
		if err != nil {
			panic(err)
		}
		reports += len(rs)
	}
	for i, pkt := range tr.Packets {
		if !restarted && pkt.TS >= restartAt {
			drain() // reports already on the wire side survive the kill
			if err := cn.Restart(mid); err != nil {
				panic(err)
			}
			if err := cn.Ctl.Reconverge(); err != nil {
				panic(err)
			}
			restarted = true
			st, err := cn.Switches[mid].Client.Stats()
			reinstalled = err == nil && st.Installed == 1
		}
		cn.Net.Deliver(pkt, cn.h1, cn.h2)
		if i%4096 == 4095 {
			drain()
		}
	}
	drain()
	if restartAt == 0 {
		reinstalled = true
	}
	return reports, reinstalled
}

// ChaosRecovery reproduces the availability story end to end: the same
// seeded SYN-flood trace runs through a 3-switch sharded Q1 deployment
// twice — once fault-free, once with seeded connection resets on every
// control channel plus a kill+restart of the middle switch's agent mid-
// run. The drain cursor keeps report delivery exactly-once through the
// resets, and Reconverge re-installs the lost shard, so the faulty run
// stays within tolerance of the baseline: it can fall short by the
// restarted shard's lost in-window state, or exceed it slightly when
// the zeroed sketch re-detects a key that had already crossed its
// threshold earlier in the same window.
func ChaosRecovery(cfg ChaosConfig) *ChaosResult {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	tr := trace.Generate(trace.Config{Seed: cfg.Seed, Flows: chaosFlows, Duration: chaosDuration},
		trace.SYNFlood{Victim: 0x0A0000AA, Packets: 600},
		trace.SYNFlood{Victim: 0x0A0000AB, Packets: 600})

	base := newChaosNet(cfg, 0)
	baseline, _ := base.run(tr, 0)
	base.Close()

	faulty := newChaosNet(cfg, chaosResetProb)
	got, reinstalled := faulty.run(tr, uint64(chaosDuration)/2)
	res := &ChaosResult{
		Seed: cfg.Seed, Baseline: baseline, WithFaults: got,
		ReinstalledOK: reinstalled,
	}
	for _, inj := range faulty.injs {
		res.Resets += inj.Stats().Resets
	}
	for _, sw := range faulty.Switches {
		res.Retries += sw.Client.Counters().Retries
		res.Redials += sw.Client.Counters().Redials
	}
	faulty.Close()
	if baseline > 0 {
		res.RecoveredPct = float64(got) / float64(baseline)
	}
	return res
}

// String renders the recovery summary.
func (r *ChaosResult) String() string {
	t := &table{header: []string{"Metric", "Value"}}
	t.add("Seed", fmt.Sprintf("%d", r.Seed))
	t.add("Baseline reports", i2s(r.Baseline))
	t.add("With faults", i2s(r.WithFaults))
	t.add("Recovered", fmt.Sprintf("%.0f%%", 100*r.RecoveredPct))
	t.add("Injected resets", fmt.Sprintf("%d", r.Resets))
	t.add("Client retries", fmt.Sprintf("%d", r.Retries))
	t.add("Client redials", fmt.Sprintf("%d", r.Redials))
	t.add("Reinstalled after restart", fmt.Sprintf("%v", r.ReinstalledOK))
	return fmt.Sprintf("Chaos: sharded Q1 under control-plane faults + agent restart (recovery vs fault-free)\n%s", t.String())
}
