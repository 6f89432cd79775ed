package experiments

import (
	"cmp"
	"fmt"
	"time"

	"github.com/newton-net/newton/internal/controller"
	"github.com/newton-net/newton/internal/query"
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
// kill+restart, and the recovery bookkeeping. Violations collects every
// run that could not be driven; an empty list is a pass.
type ChaosResult struct {
	Seed          int64
	Baseline      int     // reports collected fault-free
	WithFaults    int     // reports collected under faults + restart
	RecoveredPct  float64 // WithFaults / Baseline
	Resets        uint64  // injected connection resets
	Retries       uint64  // client call retries
	Redials       uint64  // client reconnects
	ReinstalledOK bool    // restarted agent converged back to the deploy
	Violations    []string
	// Log is both runs' per-round log: the same bytes at a seed.
	Log string
}

// Passed reports whether both runs were driven to the end.
func (r *ChaosResult) Passed() bool { return len(r.Violations) == 0 }

// chaosRun pushes the trace through a 3-switch line deploying a
// key-sharded Q1, draining reports over the control channel every 4096
// packets and at the end. When restartAt is positive, the middle switch
// restarts once the clock passes it — empty engine, same address,
// modeling a reboot that lost its installed queries — after a drain, so
// the reports already on the wire side survive the kill. The client's
// automatic redial finds the new instance and the controller
// reconverges the deployment. A step that fails ends the run with a
// violation. The run's reinstall and fault counts go to r.
func (r *ChaosResult) chaosRun(tr *trace.Trace, resetProb float64, restartAt uint64) (reports int) {
	e, err := newEngine(fleetSpec{switches: 3, poll: true, resetProb: resetProb}, r.Seed)
	if err != nil {
		r.Violations = append(r.Violations, fmt.Sprintf("fleet build: %v", err))
		return 0
	}
	defer func() {
		r.Violations, r.Log = append(r.Violations, e.errs...), r.Log+e.log.String()
		e.Close()
	}()
	fail := func(step string, err error) int {
		e.fail("round %d: %s: %v", e.round+1, step, err)
		return reports
	}
	if _, _, err := e.Ctl.Deploy(0, controller.Want{Query: query.Q1(40), Width: 1 << 12, Targets: e.Names, Sharded: true}); err != nil {
		return fail("deploy", err)
	}
	// The rounds: each ends in a drain, every 4096 packets, just before
	// the packet the restart waits for, and at the trace's end.
	var ends []int
	restartRound := -1
	for i, pkt := range tr.Packets {
		if restartAt != 0 && restartRound < 0 && pkt.TS >= restartAt {
			ends = append(ends, i)
			restartRound = len(ends)
		}
		if i%4096 == 4095 {
			ends = append(ends, i+1)
		}
	}
	lo, mid := 0, e.Names[1]
	for round, hi := range append(ends, len(tr.Packets)) {
		if round == restartRound {
			if err := e.restart(mid); err != nil {
				return fail("restart", err)
			}
			if err := e.Ctl.Reconverge(); err != nil {
				return fail("reconverge", err)
			}
			st, err := e.Switches[mid].Client.Stats()
			r.ReinstalledOK = err == nil && st.Installed == 1
			e.logf("reinstalled %v", r.ReinstalledOK)
		}
		e.deliver(tr.Packets[lo:hi])
		lo = hi
		rs, err := e.Ctl.Collect()
		if err != nil {
			return fail("collect", err)
		}
		reports += len(rs)
		e.logf("collected %d", len(rs))
		e.end(false)
	}
	for _, inj := range e.injs {
		r.Resets += inj.Stats().Resets
	}
	for _, sw := range e.Switches {
		r.Retries += sw.Client.Counters().Retries
		r.Redials += sw.Client.Counters().Redials
	}
	return reports
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
	res := &ChaosResult{Seed: cmp.Or(cfg.Seed, 1)}
	tr := trace.Generate(trace.Config{Seed: res.Seed, Flows: chaosFlows, Duration: chaosDuration},
		trace.SYNFlood{Victim: 0x0A0000AA, Packets: 600},
		trace.SYNFlood{Victim: 0x0A0000AB, Packets: 600})
	base := &ChaosResult{Seed: res.Seed}
	res.Baseline = base.chaosRun(tr, 0, 0)
	res.WithFaults = res.chaosRun(tr, chaosResetProb, uint64(chaosDuration)/2)
	res.Violations, res.Log = append(base.Violations, res.Violations...), base.Log+res.Log
	if res.Baseline > 0 {
		res.RecoveredPct = float64(res.WithFaults) / float64(res.Baseline)
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
	s := fmt.Sprintf("Chaos: sharded Q1 under control-plane faults + agent restart (recovery vs fault-free)\n%s", t.String())
	if !r.Passed() {
		s += fmt.Sprintf("FAIL (%d violations)\n", len(r.Violations))
		for _, v := range r.Violations {
			s += "violation: " + v + "\n"
		}
	}
	return s
}
