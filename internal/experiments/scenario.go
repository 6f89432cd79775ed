// The scenario engine runs the fleet experiments (soak, chaos, adaptive).
// A scenario is a seeded script of rounds over one fleet. Each round
// applies its faults and intent edits, sends its traffic through the
// network (netsim's clock ends every window the traffic crosses), may end
// a window on every switch by the controller's tick, and ends on the
// barrier: the analyzer has accounted every frame each exporter wrote
// (fleet.Fleet.Accounted). A health monitor, when the scenario runs one,
// ticks after the barrier, so the telemetry it judges is the round's
// whole. What each round did goes to one log, which is the same bytes at
// a seed.
package experiments

import (
	"fmt"
	"net"
	"slices"
	"strings"
	"time"

	"github.com/newton-net/newton/internal/faults"
	"github.com/newton-net/newton/internal/fleet"
	"github.com/newton-net/newton/internal/netsim"
	"github.com/newton-net/newton/internal/orchestrator"
	"github.com/newton-net/newton/internal/packet"
	"github.com/newton-net/newton/internal/rpc"
	"github.com/newton-net/newton/internal/telemetry"
	"github.com/newton-net/newton/internal/topology"
)

// fleetSpec is what the scenario fleets differ in. Every one is a line
// of switches behind TCP agents, each switch's connections through its
// own seeded fault injector.
type fleetSpec struct {
	switches int
	// poll leaves the exporters out: reports reach the controller over
	// the control channel (Ctl.Collect), and the clients are patient
	// enough to retry through resets. Otherwise each switch pushes
	// telemetry into one analyzer, an orchestrator plans the fleet, and
	// clients give up fast so a dead switch reads as one.
	poll bool
	// resetProb is the per-I/O probability of an injected connection
	// reset on every switch's connections.
	resetProb float64
}

// engine is one scenario's run: the fleet, its injectors, the seeded
// RNG, the fault bookkeeping and the log.
type engine struct {
	*fleet.Fleet
	h1, h2 int
	orch   *orchestrator.Orchestrator  // nil on a poll fleet
	mon    *orchestrator.Monitor       // set by a scenario that self-heals
	injs   map[string]*faults.Injector // per switch
	rng    *scenarioRNG
	names  []string // sorted: the order the seeded schedule picks in
	sws    map[string]*swFaults
	round  int // rounds ended; with a monitor, its rounds
	kills  []*outage
	errs   []string // barrier and fault failures: violations of the run
	log    strings.Builder
}

// swFaults is what the fault schedule tracks per switch.
type swFaults struct {
	dead      bool
	restartAt int     // schedule round a dead switch restarts at
	partedTo  int     // schedule round a partition heals at (0: none)
	outage    *outage // the kill in progress, when dead
}

// outage is one kill, for MTTR: the rounds ended before the kill and
// before the restart (0 until it restarts).
type outage struct {
	name                string
	killedAt, restarted int
}

func newEngine(spec fleetSpec, seed int64) (*engine, error) {
	topo, h1, h2 := topology.Linear(spec.switches)
	e := &engine{h1: h1, h2: h2, injs: map[string]*faults.Injector{}, rng: newScenarioRNG(seed),
		sws: map[string]*swFaults{}}
	for i, id := range topo.Switches() {
		name := topo.Node(id).Name
		e.injs[name] = faults.New(faults.Config{Seed: seed + int64(i), ResetProb: spec.resetProb})
		e.names = append(e.names, name)
		e.sws[name] = &swFaults{}
	}
	slices.Sort(e.names)
	cfg := fleet.Config{
		Net: netsim.Config{Stages: 8, ArraySize: 1 << 14},
		TCP: true,
		RPC: rpc.Options{
			Timeout: 250 * time.Millisecond, Retries: 3,
			BackoffBase: time.Millisecond, BackoffMax: 10 * time.Millisecond,
			Seed: seed,
		},
		Exporter: &telemetry.ExporterConfig{
			Policy:       telemetry.PolicyDropOldest,
			ReconnectMin: time.Millisecond, ReconnectMax: 20 * time.Millisecond,
		},
		Service: telemetry.ServiceConfig{KeepEpochs: 8},
		Wrap:    func(name string, c net.Conn) net.Conn { return e.injs[name].Conn(c) },
	}
	if spec.poll {
		cfg.Net.Stages, cfg.Exporter = 12, nil
		cfg.RPC.Timeout, cfg.RPC.Retries, cfg.RPC.BackoffMax = 2*time.Second, 16, 20*time.Millisecond
	}
	var err error
	if e.Fleet, err = fleet.New(topo, cfg); err != nil {
		return nil, err
	}
	if !spec.poll {
		if e.orch, err = orchestrator.New(orchestrator.Config{Topo: topo, Budgets: e.Budgets()}, e.Ctl); err != nil {
			e.Close()
			return nil, err
		}
	}
	return e, nil
}

// logf appends one line of the round being played to the log.
func (e *engine) logf(format string, args ...any) {
	fmt.Fprintf(&e.log, "r%d "+format+"\n", append([]any{e.round + 1}, args...)...)
}

// fail records a violation of the run.
func (e *engine) fail(format string, args ...any) {
	e.errs = append(e.errs, fmt.Sprintf(format, args...))
}

// deliver sends a round's traffic across the network h1 -> h2; netsim's
// clock ends every window it crosses.
func (e *engine) deliver(traffic []*packet.Packet) {
	for _, pkt := range traffic {
		e.Net.Deliver(pkt, e.h1, e.h2)
	}
}

// end ends the round: the controller ends a window on every switch when
// tick is set, and the round waits on the barrier. The monitor, if any,
// then ticks. The log gets, per switch, the snapshots and reports the
// analyzer accounted, its epoch gaps, and the monitor's transitions. It
// returns the monitor's report and the tick's error.
func (e *engine) end(tick bool) (orchestrator.TickReport, error) {
	var tickErr error
	if tick {
		tickErr = e.Ctl.Tick()
	}
	if err := e.Accounted(); err != nil {
		e.fail("round %d: %v", e.round+1, err)
	}
	if e.Svc != nil {
		var b strings.Builder
		for _, name := range e.names {
			reports, snaps, _, _ := e.Svc.AgentStats(name)
			fmt.Fprintf(&b, " %s %d/%d", name, snaps, reports)
		}
		e.logf("accounted%s gaps %d", b.String(), e.Svc.Stats().EpochGaps)
	}
	var rep orchestrator.TickReport
	if e.mon != nil {
		rep = e.mon.Tick()
		for _, ev := range rep.Transitions {
			e.logf("%s %s->%s", ev.Switch, ev.From, ev.To)
		}
	}
	e.round++
	return rep, tickErr
}

// kill crashes a switch (fleet.Kill: its exporter closes with its
// agent) until schedule round restartAt.
func (e *engine) kill(name string, restartAt int) {
	e.logf("kill %s", name)
	_ = e.Kill(name)
	sw := e.sws[name]
	sw.dead, sw.restartAt = true, restartAt
	sw.outage = &outage{name: name, killedAt: e.round}
	e.kills = append(e.kills, sw.outage)
}

// restart reboots a switch with an empty engine on the same address —
// the reboot that lost everything.
func (e *engine) restart(name string) error {
	e.logf("restart %s", name)
	if err := e.Restart(name); err != nil {
		return fmt.Errorf("restart %s: %w", name, err)
	}
	if sw := e.sws[name]; sw.dead {
		sw.dead, sw.outage.restarted = false, e.round
	}
	return nil
}

// partition cuts a switch's control and telemetry connections until
// schedule round healAt.
func (e *engine) partition(name string, healAt int) {
	e.logf("partition %s", name)
	e.injs[name].Partition()
	e.sws[name].partedTo = healAt
}

// heal ends a partition, and waits for the switch's exporter to have
// its stream back if writing into the partition cost it, so what the
// round sends reaches the analyzer whatever the redial's backoff.
func (e *engine) heal(name string) {
	e.logf("heal %s", name)
	e.injs[name].Heal()
	e.sws[name].partedTo = 0
	if exp := e.Switches[name].Exporter; exp != nil && !exp.AwaitStream() {
		e.fail("heal %s: the exporter's stream is not back after %v", name, telemetry.AwaitTimeout)
	}
}

// stall blocks a switch's I/O for 60 ms of wall time: an I/O fault, not
// a wait.
func (e *engine) stall(name string) {
	e.logf("stall %s", name)
	e.injs[name].Stall()
	time.AfterFunc(60*time.Millisecond, e.injs[name].Unstall)
}

// revive ends what schedule round has outlasted: partitions heal, and
// dead switches restart (the controller's deferred work flushes when the
// monitor re-admits them).
func (e *engine) revive(round int) {
	for _, name := range e.names {
		sw := e.sws[name]
		if sw.partedTo != 0 && round >= sw.partedTo {
			e.heal(name)
		}
		if sw.dead && round >= sw.restartAt {
			if err := e.restart(name); err != nil {
				e.fail("%v", err)
			}
		}
	}
}

// pickAlive returns a uniformly chosen switch that is up, not
// partitioned, not operator-drained and not the named exclusion ("":
// none). It keeps at least two switches untouched so the fleet always
// has somewhere to re-place queries.
func (e *engine) pickAlive(exclude string) string {
	var cands []string
	for _, name := range e.names {
		sw := e.sws[name]
		if sw.dead || sw.partedTo != 0 || name == exclude || e.orch.IsDrained(name) {
			continue
		}
		cands = append(cands, name)
	}
	if len(cands) <= 2 {
		return ""
	}
	return cands[e.rng.intn(len(cands))]
}

// scenarioRNG is a tiny seeded splitmix64, so a schedule never perturbs
// the shared math/rand state.
type scenarioRNG struct{ s uint64 }

func newScenarioRNG(seed int64) *scenarioRNG { return &scenarioRNG{s: uint64(seed)*2654435769 + 1} }

func (r *scenarioRNG) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *scenarioRNG) intn(n int) int { return int(r.next() % uint64(n)) }
