// The churn soak is the production-readiness experiment ROADMAP item
// (3b) asks for: a fleet of switch agents under continuous multi-tenant
// intent churn (installs, removes, operator drains) plus seeded faults
// (kills, partitions, stalls, connection resets, a closed exporter) for
// many rounds, with the orchestrator's health monitor — not an operator
// — driving every drain and re-admission. The run audits the properties a long-lived
// deployment actually needs: bounded heap growth, goroutine stability,
// deploy-latency tails, MTTR from fault to reconverged (in monitor
// rounds, so it reads the same however fast the host runs), and zero
// cross-tenant provenance mixups (a tenant's merged results must never
// include a switch their query was not placed on).
package experiments

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"time"

	"github.com/newton-net/newton/internal/orchestrator"
	"github.com/newton-net/newton/internal/query"
	"github.com/newton-net/newton/internal/trace"
)

// SoakConfig parameterizes the churn soak. The zero value is the
// CI-sized run; a production soak raises Switches/Tenants/Rounds.
type SoakConfig struct {
	// Seed drives the trace, every fault injector, the churn schedule,
	// and client retry jitter — the run is reproducible from it
	// (default 1).
	Seed int64
	// Switches sizes the linear fleet (default 8).
	Switches int
	// Tenants is how many tenants contribute intents; each tenant owns
	// a single-switch query and a partitioned query (default 4).
	Tenants int
	// Rounds is the churn round count (default 36). Each round applies
	// one churn or fault operation, pumps traffic, rolls epochs, and
	// ticks the health monitor.
	Rounds int
}

// The churn schedule and the audit's thresholds.
const (
	// soakKillEvery schedules a switch kill every this many rounds;
	// soakDownFor is how many rounds the switch stays dead before
	// restarting with an empty engine.
	soakKillEvery = 12
	soakDownFor   = 4
	// soakPartitionFor is how many rounds an injected control+telemetry
	// partition lasts.
	soakPartitionFor = 2
	// The monitor's ladder, compressed for round-driven churn: with
	// orchestrator.SuspectAfter, two consecutive bad rounds drain, and
	// two consecutive good rounds re-admit.
	soakDownAfter    = 1
	soakRecoverAfter = 2
	// soakMaxSilence is how many answered rounds a hosting switch's
	// telemetry may stand still: it ships a snapshot every churn round,
	// and the ticks after the churn roll no epochs, so the bound stays
	// above them.
	soakMaxSilence = soakKillEvery
	// soakSettleRounds bounds the ticks that re-admit what the last
	// rounds left impaired: a full ladder, twice over.
	soakSettleRounds = 2 * (orchestrator.SuspectAfter + soakDownAfter + soakRecoverAfter)
	// soakMaxHeapGrowthMB is the declared leak threshold: heap growth
	// from the post-warmup sample to the end of the run must stay under
	// it.
	soakMaxHeapGrowthMB = 8.0
	// soakGoroutineSlack is the tolerated goroutine delta after teardown
	// — runtime pollers and test plumbing wobble a little.
	soakGoroutineSlack = 8
)

func (c SoakConfig) withDefaults() SoakConfig {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Switches == 0 {
		c.Switches = 8
	}
	if c.Tenants == 0 {
		c.Tenants = 4
	}
	if c.Rounds == 0 {
		c.Rounds = 36
	}
	return c
}

// SoakResult is the soak's metrics and verdict. Violations collects
// every failed assertion; an empty list is a pass.
type SoakResult struct {
	Seed                      int64
	Switches, Tenants, Rounds int

	Kills        int
	AutoDrains   uint64
	AutoUndrains uint64
	ConvergeErrs uint64
	Converges    int // operator + monitor converges with recorded latency
	TickErrors   int
	Rejections   int // operator converges that failed and were retried

	// MTTR in monitor rounds, per kill: from the kill to the auto-drain,
	// and from the restart to the auto-undrain.
	MTTRDrain, MTTRReadmit []int

	// Silenced is the switch whose exporter the run closed while its
	// agent kept answering probes; MTTRSilence is the monitor rounds from
	// the close to its auto-drain (0: never drained), and SilenceReason
	// the drain's reason.
	Silenced      string
	MTTRSilence   int
	SilenceReason string

	P50Deploy, P99Deploy time.Duration

	HeapGrowthMB       float64
	GoroutineBaseline  int
	GoroutineEnd       int
	ProvenanceMixups   int
	TrackedAgentsFinal int

	// The analyzer's raw reports and missed epochs (a killed switch
	// misses windows, so gaps are reported, not asserted).
	AnalyzerReports, EpochGaps uint64

	Violations []string
}

// Passed reports whether every soak assertion held.
func (r *SoakResult) Passed() bool { return len(r.Violations) == 0 }

// soakSwitch is what the churn schedule tracks per fleet member.
type soakSwitch struct {
	dead      bool
	restartAt int       // round to restart at (when dead)
	kill      *soakKill // the outage in progress (when dead)
	partedTo  int       // round a partition heals at (0 = not partitioned)
}

// soakKill records one injected switch failure for MTTR accounting:
// the monitor rounds ticked before the kill and before the restart (0
// until it restarts; no kill precedes the first round).
type soakKill struct {
	name                string
	killedAt, restarted int
}

// soakNet is the full soak fleet: a lineFleet whose injectors the churn
// schedule trips, and the health monitor that heals it.
type soakNet struct {
	*lineFleet
	cfg   SoakConfig
	names []string // sorted, the order the seeded schedule picks in
	sws   map[string]*soakSwitch
	mon   *orchestrator.Monitor
	round int // monitor rounds ticked so far

	// allowed accumulates, per tenant query name, every switch any
	// applied plan ever placed it on — the provenance ground truth the
	// analyzer's Contributors sets are audited against.
	allowed map[string]map[string]bool

	kills    []*soakKill
	deployNs []int64 // operator converge latencies
}

func newSoakNet(cfg SoakConfig) (*soakNet, error) {
	lf, err := newLineFleet(cfg.Switches, cfg.Seed)
	if err != nil {
		return nil, err
	}
	sn := &soakNet{lineFleet: lf, cfg: cfg, names: append([]string(nil), lf.Names...),
		sws: map[string]*soakSwitch{}, allowed: map[string]map[string]bool{}}
	sort.Strings(sn.names)
	for _, name := range sn.names {
		sn.sws[name] = &soakSwitch{}
	}
	sn.mon, err = orchestrator.NewMonitor(sn.orch, sn.orch.Switches(), orchestrator.HealthConfig{
		Probe: func(name string) error {
			_, err := sn.Switches[name].Client.Stats()
			return err
		},
		// Telemetry silence only indicts a switch the fleet currently
		// expects telemetry from: a switch hosting no query sends no
		// snapshots and must not read as dead.
		Liveness: func(name string) (uint64, bool) {
			if !sn.hosting(name) {
				return 0, false
			}
			wi, ok := sn.Svc.AgentWire(name)
			return wi.Frames, ok
		},
		MaxSilence:   soakMaxSilence,
		Offline:      sn.Ctl.SetOffline,
		DownAfter:    soakDownAfter,
		RecoverAfter: soakRecoverAfter,
		// Outages here end after soakDownFor rounds; forgetting is
		// unit-tested.
		ForgetAfter: soakKillEvery,
		OnForget:    func(name string) { sn.Svc.ForgetAgent(name) },
	})
	if err != nil {
		sn.Close()
		return nil, err
	}
	return sn, nil
}

// tick runs one monitor round and notes its number.
func (sn *soakNet) tick() orchestrator.TickReport {
	rep := sn.mon.Tick()
	sn.round = rep.Round
	return rep
}

// hosting reports whether any deployed query currently places work on
// the named switch.
func (sn *soakNet) hosting(name string) bool {
	for _, qp := range sn.orch.Deployed() {
		for _, t := range qp.Targets {
			if t == name {
				return true
			}
		}
		if _, ok := qp.Parts[name]; ok {
			return true
		}
	}
	return false
}

// noteAllowed folds the current deployment into the cumulative
// provenance ground truth.
func (sn *soakNet) noteAllowed() {
	for name, qp := range sn.orch.Deployed() {
		set := sn.allowed[name]
		if set == nil {
			set = map[string]bool{}
			sn.allowed[name] = set
		}
		for _, t := range qp.Targets {
			set[t] = true
		}
		for sw := range qp.Parts {
			set[sw] = true
		}
	}
}

// converge runs an operator-path converge, recording its latency.
// Errors are tolerated (a converge racing a dying switch fails; the
// monitor's dirty-retry or the next operator call finishes the job).
func (sn *soakNet) converge() error {
	start := time.Now()
	_, _, err := sn.orch.Converge()
	sn.deployNs = append(sn.deployNs, time.Since(start).Nanoseconds())
	if err == nil {
		sn.noteAllowed()
	}
	return err
}

// kill crashes a switch (fleet.Kill: its exporter dies with its agent)
// and schedules its restart.
func (sn *soakNet) kill(name string, round int) {
	_ = sn.Kill(name)
	sw := sn.sws[name]
	sw.dead, sw.restartAt = true, round+soakDownFor
	sw.kill = &soakKill{name: name, killedAt: sn.round}
	sn.kills = append(sn.kills, sw.kill)
}

// revive ends what round has outlasted: a partition heals, and a dead
// switch restarts with an empty engine on the same address — the
// reboot-lost-everything case. The deferred removes the controller
// pinned while it was offline flush on re-admission.
func (sn *soakNet) revive(name string, round int) error {
	sw := sn.sws[name]
	if sw.partedTo != 0 && round >= sw.partedTo {
		sn.injs[name].Heal()
		sw.partedTo = 0
	}
	if !sw.dead || round < sw.restartAt {
		return nil
	}
	if err := sn.Restart(name); err != nil {
		return fmt.Errorf("restart %s: %w", name, err)
	}
	sw.dead, sw.kill.restarted = false, sn.round
	return nil
}

// tenantIntents builds every tenant's current intent set from the
// active map (tenant -> query index -> active).
func tenantIntents(tenants int, active map[[2]int]bool) []orchestrator.Intent {
	var out []orchestrator.Intent
	for t := 0; t < tenants; t++ {
		for qi := 0; qi < 2; qi++ {
			if !active[[2]int{t, qi}] {
				continue
			}
			var q *query.Query
			if qi == 0 {
				q = query.Q1(3)
			} else {
				q = query.Q4(3)
			}
			cp := *q
			cp.Name = fmt.Sprintf("t%d/%s", t, q.Name)
			out = append(out, orchestrator.Intent{Query: &cp, Priority: 10 - t})
		}
	}
	return out
}

func heapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

func quantileNs(ns []int64, q float64) time.Duration {
	if len(ns) == 0 {
		return 0
	}
	s := append([]int64(nil), ns...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := int(q * float64(len(s)-1))
	return time.Duration(s[idx])
}

// Soak runs the churn soak and returns its metrics and verdict.
func Soak(cfg SoakConfig) *SoakResult {
	cfg = cfg.withDefaults()
	res := &SoakResult{Seed: cfg.Seed, Switches: cfg.Switches,
		Tenants: cfg.Tenants, Rounds: cfg.Rounds}

	runtime.GC()
	time.Sleep(50 * time.Millisecond)
	res.GoroutineBaseline = runtime.NumGoroutine()

	sn, err := newSoakNet(cfg)
	if err != nil {
		res.Violations = append(res.Violations, fmt.Sprintf("fleet build: %v", err))
		return res
	}
	rng := newSoakRNG(cfg.Seed)

	tr := trace.Generate(trace.Config{Seed: cfg.Seed, Flows: 400, Duration: 400 * time.Millisecond},
		trace.SYNFlood{Victim: 0x0A0000AA, Packets: 400})
	perRound := len(tr.Packets) / cfg.Rounds
	if perRound == 0 {
		perRound = 1
	}

	// All tenants start fully subscribed; churn toggles from here.
	active := map[[2]int]bool{}
	for t := 0; t < cfg.Tenants; t++ {
		active[[2]int{t, 0}] = true
		active[[2]int{t, 1}] = true
	}
	sn.orch.SetIntents(tenantIntents(cfg.Tenants, active))
	needConverge := sn.converge() != nil

	var drainedByOp string
	heapAfterWarmup := 0.0
	// The warmup heap sample waits for the analyzer's epoch-retention
	// ring (KeepEpochs) to fill: before the plateau, resident merged
	// epochs still legitimately accumulate and would read as growth.
	warmup := cfg.Rounds / 2

	for round := 0; round < cfg.Rounds; round++ {
		// Restart switches, and heal partitions, that have run their course.
		for _, name := range sn.names {
			if err := sn.revive(name, round); err != nil {
				res.Violations = append(res.Violations, err.Error())
			}
		}

		// One churn or fault op per round, from the seeded schedule.
		switch {
		case round%soakKillEvery == soakKillEvery-1:
			if name := sn.pickAlive(rng, drainedByOp); name != "" {
				sn.kill(name, round)
				res.Kills++
			}
		case round%7 == 3:
			if name := sn.pickAlive(rng, drainedByOp); name != "" {
				sn.injs[name].Partition()
				sn.sws[name].partedTo = round + soakPartitionFor
			}
		case round%11 == 5:
			if name := sn.pickAlive(rng, drainedByOp); name != "" {
				sn.injs[name].Stall()
				time.AfterFunc(60*time.Millisecond, sn.injs[name].Unstall)
			}
		case round%5 == 2:
			// Operator drain/undrain toggle.
			if drainedByOp != "" {
				sn.orch.Undrain(drainedByOp)
				drainedByOp = ""
				needConverge = true
			} else if name := sn.pickAlive(rng, ""); name != "" {
				sn.orch.Drain(name)
				drainedByOp = name
				needConverge = true
			}
		default:
			// Tenant intent toggle.
			key := [2]int{rng.intn(cfg.Tenants), rng.intn(2)}
			active[key] = !active[key]
			sn.orch.SetIntents(tenantIntents(cfg.Tenants, active))
			needConverge = true
		}

		if needConverge {
			if err := sn.converge(); err != nil {
				res.Rejections++
			} else {
				needConverge = false
			}
		}

		// Pump this round's slice of traffic and roll epochs so live
		// switches snapshot their banks to the analyzer.
		lo := round * perRound
		hi := lo + perRound
		if hi > len(tr.Packets) {
			hi = len(tr.Packets)
		}
		for _, pkt := range tr.Packets[lo:hi] {
			sn.Net.Deliver(pkt, sn.h1, sn.h2)
		}
		if err := sn.Ctl.Tick(); err != nil {
			res.TickErrors++
		}

		sn.tick()
		sn.noteAllowed()

		// Provenance audit: a tenant query's contributors must be a
		// subset of everywhere it was ever placed.
		for name := range sn.orch.Deployed() {
			qid := sn.orch.QID(name)
			for _, swName := range sn.Svc.Contributors(qid) {
				if !sn.allowed[name][swName] {
					res.ProvenanceMixups++
					res.Violations = append(res.Violations, fmt.Sprintf(
						"round %d: query %s (qid %d) has contributor %s never in its placement",
						round, name, qid, swName))
				}
			}
		}

		if round == warmup {
			heapAfterWarmup = heapMB()
		}
	}

	// A kill landing on the last rounds may not have crossed the
	// debounce ladder yet: tick until the monitor has drained every
	// still-dead switch, so each injected failure round-trips through
	// auto-drain before the fleet is revived. The ladder bounds it.
	for i := 0; i < orchestrator.SuspectAfter+soakDownAfter && sn.deadUndrained(); i++ {
		sn.tick()
	}

	// Now revive everything still impaired, whatever round it was due,
	// and let the monitor finish re-admitting it.
	for _, name := range sn.names {
		if err := sn.revive(name, math.MaxInt); err != nil {
			res.Violations = append(res.Violations, err.Error())
		}
	}
	if drainedByOp != "" {
		sn.orch.Undrain(drainedByOp)
		needConverge = true
	}
	needConverge = sn.settle(needConverge)

	// The passive signal: a switch whose exporter closed while its agent
	// still answers is drained for its silence alone, then restarted
	// with an exporter and re-admitted like a killed one.
	if name := sn.firstHosting(); name != "" {
		res.Silenced = name
		res.MTTRSilence, res.SilenceReason = sn.silence(name)
		if err := sn.Restart(name); err != nil {
			res.Violations = append(res.Violations, fmt.Sprintf("restart %s: %v", name, err))
		}
		needConverge = sn.settle(needConverge)
	}

	// End-state: the fleet must be fully reconverged — a pure plan
	// reports no pending deltas.
	if _, d, err := sn.orch.Plan(); err != nil {
		res.Violations = append(res.Violations, fmt.Sprintf("final plan: %v", err))
	} else if !d.Empty() {
		res.Violations = append(res.Violations, fmt.Sprintf(
			"fleet not reconverged after soak: %d pending deltas", len(d.Deltas)))
	}

	// MTTR per kill, from the monitor's event log: each kill record
	// claims the first unclaimed auto-drain (resp. auto-undrain) for its
	// switch in a round after the kill (resp. restart).
	events := sn.mon.Events()
	claimed := map[int]bool{}
	claim := func(name, action string, round int, mttr *[]int) {
		for i, ev := range events {
			if ev.Switch == name && ev.Action == action && ev.Round > round && !claimed[i] {
				claimed[i] = true
				*mttr = append(*mttr, ev.Round-round)
				return
			}
		}
	}
	for _, k := range sn.kills {
		claim(k.name, "auto-drain", k.killedAt, &res.MTTRDrain)
		if k.restarted != 0 {
			claim(k.name, "auto-undrain", k.restarted, &res.MTTRReadmit)
		}
	}

	snap := sn.mon.Snapshot()
	res.AutoDrains = snap.AutoDrains
	res.AutoUndrains = snap.AutoUndrains
	res.ConvergeErrs = snap.ConvergeErrs
	allNs := append([]int64(nil), sn.deployNs...)
	for _, d := range sn.mon.ConvergeDurations() {
		allNs = append(allNs, d.Nanoseconds())
	}
	res.Converges = len(allNs)
	res.P50Deploy = quantileNs(allNs, 0.50)
	res.P99Deploy = quantileNs(allNs, 0.99)
	res.TrackedAgentsFinal = sn.Svc.TrackedAgents()
	svc := sn.Svc.Stats()
	res.AnalyzerReports, res.EpochGaps = svc.Reports, svc.EpochGaps

	heapEnd := heapMB()
	if heapAfterWarmup > 0 {
		res.HeapGrowthMB = heapEnd - heapAfterWarmup
	}

	// Soak assertions.
	if res.Kills > 0 && int(res.AutoDrains) < res.Kills {
		res.Violations = append(res.Violations, fmt.Sprintf(
			"only %d auto-drains for %d kills: a dead switch was never drained", res.AutoDrains, res.Kills))
	}
	if res.Kills > 0 && len(res.MTTRDrain) < res.Kills {
		res.Violations = append(res.Violations, fmt.Sprintf(
			"MTTR accounting found %d drains for %d kills", len(res.MTTRDrain), res.Kills))
	}
	if res.Kills > 0 && int(res.AutoUndrains) < res.Kills {
		res.Violations = append(res.Violations, fmt.Sprintf(
			"only %d auto-undrains for %d kills: a recovered switch was never re-admitted", res.AutoUndrains, res.Kills))
	}
	if want := silenceMTTR(); res.MTTRSilence != want || res.SilenceReason != silenceReason() {
		res.Violations = append(res.Violations, fmt.Sprintf(
			"closing %q's exporter drained it %d rounds later (%q), want %d (%q)",
			res.Silenced, res.MTTRSilence, res.SilenceReason, want, silenceReason()))
	}
	if res.AnalyzerReports == 0 {
		res.Violations = append(res.Violations,
			"no report reached the analyzer: the SYN flood was never alerted on")
	}
	if res.HeapGrowthMB > soakMaxHeapGrowthMB {
		res.Violations = append(res.Violations, fmt.Sprintf(
			"heap grew %.1f MB since warmup (threshold %.1f MB)", res.HeapGrowthMB, soakMaxHeapGrowthMB))
	}

	sn.Close()
	deadline := time.Now().Add(5 * time.Second)
	res.GoroutineEnd = runtime.NumGoroutine()
	for res.GoroutineEnd > res.GoroutineBaseline+soakGoroutineSlack && time.Now().Before(deadline) {
		runtime.GC()
		time.Sleep(20 * time.Millisecond)
		res.GoroutineEnd = runtime.NumGoroutine()
	}
	if res.GoroutineEnd > res.GoroutineBaseline+soakGoroutineSlack {
		res.Violations = append(res.Violations, fmt.Sprintf(
			"goroutines leaked: baseline %d, after teardown %d (slack %d)",
			res.GoroutineBaseline, res.GoroutineEnd, soakGoroutineSlack))
	}
	return res
}

// settle ticks until every switch is healthy and the fleet converged,
// bounded by soakSettleRounds, converging when one is owed; it returns
// whether one still is.
func (sn *soakNet) settle(needConverge bool) bool {
	for i := 0; i < soakSettleRounds; i++ {
		rep := sn.tick()
		allHealthy := true
		for _, name := range sn.names {
			if st, _ := sn.mon.State(name); st != orchestrator.Healthy {
				allHealthy = false
			}
		}
		if allHealthy && rep.ConvergeErr == nil && !needConverge {
			break
		}
		if needConverge && sn.converge() == nil {
			needConverge = false
		}
	}
	return needConverge
}

// firstHosting returns the first switch, by name, that hosts work, or
// "".
func (sn *soakNet) firstHosting() string {
	for _, name := range sn.names {
		if sn.hosting(name) {
			return name
		}
	}
	return ""
}

// silenceMTTR is the rounds from closing a hosting switch's exporter to
// its auto-drain: the first round reads the frames the close flushed,
// the next soakMaxSilence stand still inside the bound, and the ladder's
// bad rounds follow.
func silenceMTTR() int { return 1 + soakMaxSilence + orchestrator.SuspectAfter + soakDownAfter }

// silenceReason is the drain reason of a switch silent since the close.
func silenceReason() string {
	return fmt.Sprintf("telemetry: silent for %d rounds", silenceMTTR()-1)
}

// silence closes name's exporter, leaving its agent up, and ends a
// window on every switch each round, so every other hosting switch's
// telemetry moves, until the monitor drains name. It returns the rounds
// from the close to the drain (0 if the ladder's worth and two more
// passed without one) and the drain's reason. The close flushes what
// the exporter held, the window ended just before it included; the
// analyzer has counted it all once the stream has ended. A failed tick
// shows as a wrong count of rounds.
func (sn *soakNet) silence(name string) (int, string) {
	_ = sn.Ctl.Tick()
	sn.Switches[name].Exporter.Close()
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if connected, _ := sn.Svc.AgentLiveness(name); !connected {
			break
		}
	}
	before := sn.round
	for i := 0; i < silenceMTTR()+2; i++ {
		_ = sn.Ctl.Tick()
		rep := sn.tick()
		if slices.Contains(rep.Drained, name) {
			for _, ev := range sn.mon.Events() {
				if ev.Round == rep.Round && ev.Switch == name && ev.Action == "auto-drain" {
					return rep.Round - before, ev.Reason
				}
			}
		}
	}
	return 0, ""
}

// deadUndrained reports whether a dead switch is not yet down at the
// monitor.
func (sn *soakNet) deadUndrained() bool {
	for _, name := range sn.names {
		if st, _ := sn.mon.State(name); sn.sws[name].dead && st != orchestrator.Down {
			return true
		}
	}
	return false
}

// pickAlive returns a uniformly chosen switch that is up, not operator-
// drained, and not the named exclusion ("" excludes nothing). It keeps
// at least two switches untouched so the fleet always has somewhere to
// re-place queries.
func (sn *soakNet) pickAlive(rng *soakRNG, exclude string) string {
	var cands []string
	for _, name := range sn.names {
		sw := sn.sws[name]
		if sw.dead || sw.partedTo != 0 || name == exclude || sn.orch.IsDrained(name) {
			continue
		}
		cands = append(cands, name)
	}
	if len(cands) <= 2 {
		return ""
	}
	return cands[rng.intn(len(cands))]
}

// soakRNG is a tiny seeded splitmix64, so the churn schedule never
// perturbs the shared math/rand state.
type soakRNG struct{ s uint64 }

func newSoakRNG(seed int64) *soakRNG { return &soakRNG{s: uint64(seed)*2654435769 + 1} }

func (r *soakRNG) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *soakRNG) intn(n int) int { return int(r.next() % uint64(n)) }

// String renders the soak verdict and metrics table.
func (r *SoakResult) String() string {
	t := &table{header: []string{"Metric", "Value"}}
	t.add("Seed", fmt.Sprintf("%d", r.Seed))
	t.add("Fleet", fmt.Sprintf("%d switches, %d tenants, %d rounds", r.Switches, r.Tenants, r.Rounds))
	t.add("Kills", i2s(r.Kills))
	t.add("Auto-drains", fmt.Sprintf("%d", r.AutoDrains))
	t.add("Auto-undrains", fmt.Sprintf("%d", r.AutoUndrains))
	t.add("Converges (latency-tracked)", i2s(r.Converges))
	t.add("Converge errors (retried)", fmt.Sprintf("%d", r.ConvergeErrs))
	t.add("Deploy p50", r.P50Deploy.Round(time.Microsecond).String())
	t.add("Deploy p99", r.P99Deploy.Round(time.Microsecond).String())
	for i, n := range r.MTTRDrain {
		t.add(fmt.Sprintf("MTTR kill %d -> drained", i+1), fmt.Sprintf("%d rounds", n))
	}
	for i, n := range r.MTTRReadmit {
		t.add(fmt.Sprintf("MTTR restart %d -> re-admitted", i+1), fmt.Sprintf("%d rounds", n))
	}
	if r.Silenced != "" {
		t.add(fmt.Sprintf("MTTR %s exporter closed -> drained", r.Silenced),
			fmt.Sprintf("%d rounds (%s)", r.MTTRSilence, r.SilenceReason))
	}
	t.add("Heap growth since warmup", fmt.Sprintf("%.2f MB", r.HeapGrowthMB))
	t.add("Goroutines (baseline -> end)", fmt.Sprintf("%d -> %d", r.GoroutineBaseline, r.GoroutineEnd))
	t.add("Provenance mixups", i2s(r.ProvenanceMixups))
	t.add("Tracked agents (final)", i2s(r.TrackedAgentsFinal))
	t.add("Reports at the analyzer", fmt.Sprintf("%d", r.AnalyzerReports))
	t.add("Analyzer epoch gaps", fmt.Sprintf("%d", r.EpochGaps))
	verdict := "PASS"
	if !r.Passed() {
		verdict = fmt.Sprintf("FAIL (%d violations)", len(r.Violations))
	}
	t.add("Verdict", verdict)
	s := fmt.Sprintf("Churn soak: self-healing fleet under multi-tenant churn + seeded faults\n%s", t.String())
	for _, v := range r.Violations {
		s += "violation: " + v + "\n"
	}
	return s
}

// Metrics exports the soak numbers for newton-bench -json.
func (r *SoakResult) Metrics() map[string]float64 {
	m := map[string]float64{
		"kills":               float64(r.Kills),
		"auto_drains":         float64(r.AutoDrains),
		"auto_undrains":       float64(r.AutoUndrains),
		"converge_errors":     float64(r.ConvergeErrs),
		"deploy_p50_ms":       float64(r.P50Deploy) / float64(time.Millisecond),
		"deploy_p99_ms":       float64(r.P99Deploy) / float64(time.Millisecond),
		"heap_growth_mb":      r.HeapGrowthMB,
		"goroutine_delta":     float64(r.GoroutineEnd - r.GoroutineBaseline),
		"provenance_mixups":   float64(r.ProvenanceMixups),
		"analyzer_reports":    float64(r.AnalyzerReports),
		"epoch_gaps":          float64(r.EpochGaps),
		"violations":          float64(len(r.Violations)),
		"mttr_silence_rounds": float64(r.MTTRSilence),
	}
	for i, n := range r.MTTRDrain {
		m[fmt.Sprintf("mttr_drain_%d_rounds", i+1)] = float64(n)
	}
	for i, n := range r.MTTRReadmit {
		m[fmt.Sprintf("mttr_readmit_%d_rounds", i+1)] = float64(n)
	}
	return m
}
