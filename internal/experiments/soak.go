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
	"cmp"
	"fmt"
	"math"
	"runtime"
	"slices"
	"time"

	"github.com/newton-net/newton/internal/orchestrator"
	"github.com/newton-net/newton/internal/query"
	"github.com/newton-net/newton/internal/trace"
)

// SoakConfig parameterizes the churn soak: an 8-switch fleet, 4 tenants
// and 36 churn rounds.
type SoakConfig struct {
	// Seed drives the trace, every fault injector, the churn schedule,
	// and client retry jitter — the run is reproducible from it
	// (default 1).
	Seed int64
}

// The fleet, the churn schedule and the audit's thresholds.
const (
	soakSwitches = 8
	// Each tenant owns a single-switch query and a partitioned query.
	soakTenants = 4
	// Each churn round applies one churn or fault operation, pumps
	// traffic, rolls epochs, and ticks the health monitor.
	soakRounds = 36
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
	// soakGoroutineSlack is the tolerated goroutine delta after teardown,
	// read once when fleet.Close returns: a goroutine that has run to its
	// end may not have exited yet, and runtime pollers and test plumbing
	// wobble a little.
	soakGoroutineSlack = 8
)

// SoakResult is the soak's metrics and verdict. Violations collects
// every failed assertion; an empty list is a pass.
type SoakResult struct {
	Seed int64

	Kills        int
	AutoDrains   uint64
	AutoUndrains uint64
	ConvergeErrs uint64
	Converges    int // operator + monitor converges with recorded latency

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
	// Log is the run's per-round log: the same bytes at a seed.
	Log string
}

// Passed reports whether every soak assertion held.
func (r *SoakResult) Passed() bool { return len(r.Violations) == 0 }

// soak is the churn soak's state beside its engine.
type soak struct {
	*engine
	// allowed accumulates, per tenant query name, every switch any
	// applied plan ever placed it on — the provenance ground truth the
	// analyzer's Contributors sets are audited against.
	allowed  map[string]map[string]bool
	deployNs []int64 // operator converge latencies
}

// hosting reports whether any deployed query currently places work on
// the named switch.
func (s *soak) hosting(name string) bool {
	for _, qp := range s.orch.Deployed() {
		if _, ok := qp.Parts[name]; ok || slices.Contains(qp.Targets, name) {
			return true
		}
	}
	return false
}

// noteAllowed folds the current deployment into the cumulative
// provenance ground truth.
func (s *soak) noteAllowed() {
	for name, qp := range s.orch.Deployed() {
		set := s.allowed[name]
		if set == nil {
			set = map[string]bool{}
			s.allowed[name] = set
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
func (s *soak) converge() error {
	start := time.Now()
	_, _, err := s.orch.Converge()
	s.deployNs = append(s.deployNs, time.Since(start).Nanoseconds())
	if err == nil {
		s.noteAllowed()
	}
	return err
}

// tenantIntents builds every tenant's current intent set from the
// active map (tenant -> query index -> active).
func tenantIntents(active map[[2]int]bool) []orchestrator.Intent {
	var out []orchestrator.Intent
	for t := 0; t < soakTenants; t++ {
		for qi, q := range []*query.Query{query.Q1(3), query.Q4(3)} {
			if !active[[2]int{t, qi}] {
				continue
			}
			q.Name = fmt.Sprintf("t%d/%s", t, q.Name)
			out = append(out, orchestrator.Intent{Query: q, Priority: 10 - t})
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
	s := slices.Clone(ns)
	slices.Sort(s)
	return time.Duration(s[int(q*float64(len(s)-1))])
}

// Soak runs the churn soak and returns its metrics and verdict.
func Soak(cfg SoakConfig) *SoakResult {
	res := &SoakResult{Seed: cmp.Or(cfg.Seed, 1)}
	runtime.GC()
	res.GoroutineBaseline = runtime.NumGoroutine()

	e, err := newEngine(fleetSpec{switches: soakSwitches}, res.Seed)
	if err != nil {
		res.Violations = append(res.Violations, fmt.Sprintf("fleet build: %v", err))
		return res
	}
	s := &soak{engine: e, allowed: map[string]map[string]bool{}}
	e.mon, err = orchestrator.NewMonitor(e.orch, e.orch.Switches(), orchestrator.HealthConfig{
		Probe: func(name string) error {
			_, err := e.Switches[name].Client.Stats()
			return err
		},
		// Telemetry silence only indicts a switch the fleet currently
		// expects telemetry from: a switch hosting no query sends no
		// snapshots and must not read as dead.
		Liveness: func(name string) (uint64, bool) {
			if !s.hosting(name) {
				return 0, false
			}
			wi, ok := e.Svc.AgentWire(name)
			return wi.Frames, ok
		},
		MaxSilence:   soakMaxSilence,
		Offline:      e.Ctl.SetOffline,
		DownAfter:    soakDownAfter,
		RecoverAfter: soakRecoverAfter,
		// Outages here end after soakDownFor rounds; forgetting is
		// unit-tested.
		ForgetAfter: soakKillEvery,
		OnForget:    e.Forget,
	})
	if err != nil {
		e.Close()
		res.Violations = append(res.Violations, fmt.Sprintf("monitor: %v", err))
		return res
	}
	s.run(res)
	res.Violations, res.Log = e.errs, e.log.String()

	e.Close()
	res.GoroutineEnd = runtime.NumGoroutine()
	if res.GoroutineEnd > res.GoroutineBaseline+soakGoroutineSlack {
		res.Violations = append(res.Violations, fmt.Sprintf(
			"goroutines leaked: baseline %d, after teardown %d (slack %d)",
			res.GoroutineBaseline, res.GoroutineEnd, soakGoroutineSlack))
	}
	return res
}

// run plays the soak's rounds and audits them into res.
func (s *soak) run(res *SoakResult) {
	tr := trace.Generate(trace.Config{Seed: res.Seed, Flows: 400, Duration: 400 * time.Millisecond},
		trace.SYNFlood{Victim: 0x0A0000AA, Packets: 400})
	perRound := max(len(tr.Packets)/soakRounds, 1)

	// All tenants start fully subscribed; churn toggles from here.
	active := map[[2]int]bool{}
	for t := 0; t < soakTenants; t++ {
		active[[2]int{t, 0}] = true
		active[[2]int{t, 1}] = true
	}
	s.orch.SetIntents(tenantIntents(active))
	needConverge := s.converge() != nil

	var drainedByOp string
	heapAfterWarmup := 0.0
	// The warmup heap sample waits for the analyzer's epoch-retention
	// ring (KeepEpochs) to fill: before the plateau, resident merged
	// epochs still legitimately accumulate and would read as growth.
	warmup := soakRounds / 2

	for round := 0; round < soakRounds; round++ {
		s.revive(round)
		// One churn or fault op per round, from the seeded schedule.
		switch {
		case round%soakKillEvery == soakKillEvery-1:
			if name := s.pickAlive(drainedByOp); name != "" {
				s.kill(name, round+soakDownFor)
				res.Kills++
			}
		case round%7 == 3:
			if name := s.pickAlive(drainedByOp); name != "" {
				s.partition(name, round+soakPartitionFor)
			}
		case round%11 == 5:
			if name := s.pickAlive(drainedByOp); name != "" {
				s.stall(name)
			}
		case round%5 == 2:
			// Operator drain/undrain toggle.
			if drainedByOp != "" {
				s.logf("undrain %s", drainedByOp)
				s.orch.Undrain(drainedByOp)
				drainedByOp = ""
				needConverge = true
			} else if name := s.pickAlive(""); name != "" {
				s.logf("drain %s", name)
				s.orch.Drain(name)
				drainedByOp = name
				needConverge = true
			}
		default:
			// Tenant intent toggle.
			key := [2]int{s.rng.intn(soakTenants), s.rng.intn(2)}
			active[key] = !active[key]
			s.logf("intent t%d/q%d on=%v", key[0], 1+3*key[1], active[key])
			s.orch.SetIntents(tenantIntents(active))
			needConverge = true
		}

		if needConverge && s.converge() == nil {
			needConverge = false
		}

		// This round's slice of traffic, and a window ended on every live
		// switch, so it snapshots its banks to the analyzer.
		lo := min(round*perRound, len(tr.Packets))
		s.deliver(tr.Packets[lo:min(lo+perRound, len(tr.Packets))])
		s.end(true)
		s.noteAllowed()

		// Provenance audit: a tenant query's contributors must be a
		// subset of everywhere it was ever placed.
		for name := range s.orch.Deployed() {
			qid := s.orch.QID(name)
			for _, swName := range s.Svc.Contributors(qid) {
				if !s.allowed[name][swName] {
					res.ProvenanceMixups++
					s.fail("round %d: query %s (qid %d) has contributor %s never in its placement",
						round, name, qid, swName)
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
	for i := 0; i < orchestrator.SuspectAfter+soakDownAfter && s.deadUndrained(); i++ {
		s.end(false)
	}

	// Now revive everything still impaired, whatever round it was due,
	// and let the monitor finish re-admitting it.
	s.revive(math.MaxInt)
	if drainedByOp != "" {
		s.logf("undrain %s", drainedByOp)
		s.orch.Undrain(drainedByOp)
		needConverge = true
	}
	needConverge = s.settle(needConverge)

	// The passive signal: a switch whose exporter closed while its agent
	// still answers is drained for its silence alone, then restarted
	// with an exporter and re-admitted like a killed one.
	if name := s.firstHosting(); name != "" {
		res.Silenced = name
		res.MTTRSilence, res.SilenceReason = s.silence(name)
		if err := s.restart(name); err != nil {
			s.fail("%v", err)
		}
		s.settle(needConverge)
	}

	// End-state: the fleet must be fully reconverged — a pure plan
	// reports no pending deltas.
	if _, d, err := s.orch.Plan(); err != nil {
		s.fail("final plan: %v", err)
	} else if !d.Empty() {
		s.fail("fleet not reconverged after soak: %d pending deltas", len(d.Deltas))
	}

	// MTTR per kill, from the monitor's event log: each kill record
	// claims the first unclaimed auto-drain (resp. auto-undrain) for its
	// switch in a round after the kill (resp. restart).
	events := s.mon.Events()
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
	for _, k := range s.kills {
		claim(k.name, "auto-drain", k.killedAt, &res.MTTRDrain)
		if k.restarted != 0 {
			claim(k.name, "auto-undrain", k.restarted, &res.MTTRReadmit)
		}
	}

	snap := s.mon.Snapshot()
	res.AutoDrains = snap.AutoDrains
	res.AutoUndrains = snap.AutoUndrains
	res.ConvergeErrs = snap.ConvergeErrs
	allNs := slices.Clone(s.deployNs)
	for _, d := range s.mon.ConvergeDurations() {
		allNs = append(allNs, d.Nanoseconds())
	}
	res.Converges = len(allNs)
	res.P50Deploy = quantileNs(allNs, 0.50)
	res.P99Deploy = quantileNs(allNs, 0.99)
	res.TrackedAgentsFinal = s.Svc.TrackedAgents()
	svc := s.Svc.Stats()
	res.AnalyzerReports, res.EpochGaps = svc.Reports, svc.EpochGaps

	if heapAfterWarmup > 0 {
		res.HeapGrowthMB = heapMB() - heapAfterWarmup
	}

	// Soak assertions.
	if res.Kills > 0 && int(res.AutoDrains) < res.Kills {
		s.fail("only %d auto-drains for %d kills: a dead switch was never drained", res.AutoDrains, res.Kills)
	}
	if res.Kills > 0 && len(res.MTTRDrain) < res.Kills {
		s.fail("MTTR accounting found %d drains for %d kills", len(res.MTTRDrain), res.Kills)
	}
	if res.Kills > 0 && int(res.AutoUndrains) < res.Kills {
		s.fail("only %d auto-undrains for %d kills: a recovered switch was never re-admitted",
			res.AutoUndrains, res.Kills)
	}
	if want := silenceMTTR(); res.MTTRSilence != want || res.SilenceReason != silenceReason() {
		s.fail("closing %q's exporter drained it %d rounds later (%q), want %d (%q)",
			res.Silenced, res.MTTRSilence, res.SilenceReason, want, silenceReason())
	}
	if res.AnalyzerReports == 0 {
		s.fail("no report reached the analyzer: the SYN flood was never alerted on")
	}
	if res.HeapGrowthMB > soakMaxHeapGrowthMB {
		s.fail("heap grew %.1f MB since warmup (threshold %.1f MB)", res.HeapGrowthMB, soakMaxHeapGrowthMB)
	}
}

// settle ticks until every switch is healthy and the fleet converged,
// bounded by soakSettleRounds, converging when one is owed; it returns
// whether one still is.
func (s *soak) settle(needConverge bool) bool {
	for i := 0; i < soakSettleRounds; i++ {
		rep, _ := s.end(false)
		allHealthy := true
		for _, name := range s.names {
			if st, _ := s.mon.State(name); st != orchestrator.Healthy {
				allHealthy = false
			}
		}
		if allHealthy && rep.ConvergeErr == nil && !needConverge {
			break
		}
		if needConverge && s.converge() == nil {
			needConverge = false
		}
	}
	return needConverge
}

// firstHosting returns the first switch, by name, that hosts work, or
// "".
func (s *soak) firstHosting() string {
	for _, name := range s.names {
		if s.hosting(name) {
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
// first round's barrier has it all, and the stream's end. A failed tick
// shows as a wrong count of rounds.
func (s *soak) silence(name string) (int, string) {
	_ = s.Ctl.Tick()
	s.logf("close %s", name)
	s.Switches[name].Exporter.Close()
	before := s.round
	for i := 0; i < silenceMTTR()+2; i++ {
		rep, _ := s.end(true)
		if slices.Contains(rep.Drained, name) {
			for _, ev := range s.mon.Events() {
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
func (s *soak) deadUndrained() bool {
	for _, name := range s.names {
		if st, _ := s.mon.State(name); s.sws[name].dead && st != orchestrator.Down {
			return true
		}
	}
	return false
}

// String renders the soak verdict and metrics table.
func (r *SoakResult) String() string {
	t := &table{header: []string{"Metric", "Value"}}
	t.add("Seed", fmt.Sprintf("%d", r.Seed))
	t.add("Fleet", fmt.Sprintf("%d switches, %d tenants, %d rounds", soakSwitches, soakTenants, soakRounds))
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
