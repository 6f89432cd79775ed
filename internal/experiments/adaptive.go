// The adaptive-accuracy experiment closes the loop ROADMAP item (4)
// asks for: an intent declares a target relative error instead of a
// width, the fleet frugal-starts at the narrowest rung, and the
// refiner — fed by the analyzer's per-epoch error bounds — walks the
// width ladder as a shifting Zipf workload moves through calm, surge,
// and calm phases. The run audits the closed-loop properties that
// matter: convergence back under tolerance within R rounds of every
// shift, strictly less provisioned memory than the static worst-case
// configuration, zero oscillation (flaps) on the phase boundaries, a
// stable qid across every in-place resize, and clean provenance (the
// merged results never mix contributions across widths or switches).
package experiments

import (
	"fmt"
	"math/rand"
	"net"
	"sort"
	"strings"
	"time"

	"github.com/newton-net/newton/internal/faults"
	"github.com/newton-net/newton/internal/fleet"
	"github.com/newton-net/newton/internal/netsim"
	"github.com/newton-net/newton/internal/orchestrator"
	"github.com/newton-net/newton/internal/packet"
	"github.com/newton-net/newton/internal/query"
	"github.com/newton-net/newton/internal/rpc"
	"github.com/newton-net/newton/internal/telemetry"
	"github.com/newton-net/newton/internal/topology"
)

// adaptiveQ1 is the accuracy-driven intent under test;
// adaptiveThreshold is its report threshold, which doubles as the error
// scale.
const (
	adaptiveQ1        = "q1_new_tcp_connections"
	adaptiveThreshold = 50
)

// AdaptiveConfig parameterizes the closed-loop run. The zero value is
// the CI-sized experiment.
type AdaptiveConfig struct {
	// Seed drives the Zipf workload and client jitter (default 1).
	Seed int64
	// Switches sizes the linear fleet (default 3). The adaptive query
	// lives on s1; the others host nothing and prove resize locality.
	Switches int
	// RoundsPerPhase is how many traffic rounds (= epochs) each of the
	// three phases lasts (default 12).
	RoundsPerPhase int
	// ConvergeWithin is R: after a phase shift the observed error must
	// be back under tolerance — and stay there — within this many
	// rounds (default 6).
	ConvergeWithin int
	// TargetRelErr is the intent's declared error tolerance
	// (default 0.25), relative to adaptiveThreshold.
	TargetRelErr float64
	// CalmPackets/SurgePackets are SYN packets per round in the calm
	// and surge phases (defaults 2000 and 12000).
	CalmPackets  int
	SurgePackets int
	// MinWidth/MaxWidth bound the width ladder (defaults 256 and
	// 8192). MaxWidth is also the static worst-case provisioning the
	// adaptive run is charged against.
	MinWidth, MaxWidth uint32
}

func (c AdaptiveConfig) withDefaults() AdaptiveConfig {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Switches == 0 {
		c.Switches = 3
	}
	if c.RoundsPerPhase == 0 {
		c.RoundsPerPhase = 12
	}
	if c.ConvergeWithin == 0 {
		c.ConvergeWithin = 6
	}
	if c.TargetRelErr == 0 {
		c.TargetRelErr = 0.25
	}
	if c.CalmPackets == 0 {
		c.CalmPackets = 2000
	}
	if c.SurgePackets == 0 {
		c.SurgePackets = 12000
	}
	if c.MinWidth == 0 {
		c.MinWidth = 256
	}
	if c.MaxWidth == 0 {
		c.MaxWidth = 8192
	}
	return c
}

// AdaptiveRound is one row of the target-vs-observed trajectory.
type AdaptiveRound struct {
	Round    int    // 1-based across the whole run
	Phase    string // calm / surge / calm2
	Epoch    uint32
	Width    uint32  // width that produced this epoch's banks
	Observed float64 // analyzer error bound (CMS rel-err vs bloom FPP max)
	Settled  bool    // all contributors merged, no width transition
	InBand   bool    // Observed <= target
	Events   []string
}

// AdaptiveResult is the run's trajectory, metrics, and verdict.
// Violations collects every failed assertion; an empty list is a pass.
type AdaptiveResult struct {
	Seed                         int64
	Rounds, RoundsPerPhase       int
	ConvergeWithin               int
	Target                       float64
	Trajectory                   []AdaptiveRound
	ConvergedIn                  map[string]int // phase -> rounds until stably in band
	Widens, Narrows, Resizes     int
	Flaps, Rejects               int
	FinalWidth                   uint32
	AdaptiveWidthSum             uint64 // provisioned width summed over rounds
	StaticWidthSum               uint64 // MaxWidth summed over rounds
	MemRatio                     float64
	ProvenanceMixups, QIDChanges int
	Violations                   []string
}

// Passed reports whether every closed-loop property held.
func (r *AdaptiveResult) Passed() bool { return len(r.Violations) == 0 }

// Metrics flattens the result for the bench harness's JSON record.
func (r *AdaptiveResult) Metrics() map[string]float64 {
	m := map[string]float64{
		"rounds":            float64(r.Rounds),
		"target_rel_err":    r.Target,
		"widens":            float64(r.Widens),
		"narrows":           float64(r.Narrows),
		"resizes":           float64(r.Resizes),
		"flaps":             float64(r.Flaps),
		"rejects":           float64(r.Rejects),
		"final_width":       float64(r.FinalWidth),
		"mem_ratio":         r.MemRatio,
		"provenance_mixups": float64(r.ProvenanceMixups),
		"qid_changes":       float64(r.QIDChanges),
		"violations":        float64(len(r.Violations)),
	}
	for ph, n := range r.ConvergedIn {
		m["converge_rounds_"+ph] = float64(n)
	}
	return m
}

func (r *AdaptiveResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "adaptive accuracy: seed %d, %d rounds (%d/phase), target rel-err %.3g\n",
		r.Seed, r.Rounds, r.RoundsPerPhase, r.Target)
	fmt.Fprintf(&b, "%-6s %-6s %-6s %-7s %-9s %-8s %s\n",
		"round", "phase", "epoch", "width", "observed", "in-band", "events")
	for _, row := range r.Trajectory {
		obs := fmt.Sprintf("%.4f", row.Observed)
		if !row.Settled {
			obs += "*"
		}
		band := "yes"
		if !row.InBand {
			band = "NO"
		}
		fmt.Fprintf(&b, "%-6d %-6s %-6d %-7d %-9s %-8s %s\n",
			row.Round, row.Phase, row.Epoch, row.Width, obs, band,
			strings.Join(row.Events, "; "))
	}
	b.WriteString("(* = transition/partial epoch: estimate shown, never drives control)\n")
	phases := make([]string, 0, len(r.ConvergedIn))
	for ph := range r.ConvergedIn {
		phases = append(phases, ph)
	}
	sort.Strings(phases)
	for _, ph := range phases {
		fmt.Fprintf(&b, "converged[%s] = round %d of phase (budget %d)\n",
			ph, r.ConvergedIn[ph], r.ConvergeWithin)
	}
	fmt.Fprintf(&b, "resizes %d (widen %d, narrow %d), flaps %d, rejects %d, final width %d\n",
		r.Resizes, r.Widens, r.Narrows, r.Flaps, r.Rejects, r.FinalWidth)
	fmt.Fprintf(&b, "memory: adaptive %d width-rounds vs static %d (ratio %.3f)\n",
		r.AdaptiveWidthSum, r.StaticWidthSum, r.MemRatio)
	fmt.Fprintf(&b, "provenance mixups %d, qid changes %d\n", r.ProvenanceMixups, r.QIDChanges)
	if r.Passed() {
		b.WriteString("PASS\n")
	} else {
		fmt.Fprintf(&b, "FAIL (%d violations)\n", len(r.Violations))
		for _, v := range r.Violations {
			fmt.Fprintf(&b, "  - %s\n", v)
		}
	}
	return b.String()
}

// lineFleet is the testbed adaptive and soak share: a line of 8-stage
// switches behind TCP agents, clients with tight deadlines and
// millisecond backoff, exporters that never block the packet path and
// redial a lost stream within milliseconds, one analyzer, and an
// orchestrator on top. Every switch's connections run through its own
// fault injector, which passes everything until a caller trips it.
type lineFleet struct {
	*fleet.Fleet
	h1, h2 int
	orch   *orchestrator.Orchestrator
	injs   map[string]*faults.Injector
}

func newLineFleet(switches int, seed int64) (*lineFleet, error) {
	topo, h1, h2 := topology.Linear(switches)
	lf := &lineFleet{h1: h1, h2: h2, injs: newInjectors(topo, seed, 0)}
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
		Wrap:    func(name string, c net.Conn) net.Conn { return lf.injs[name].Conn(c) },
	}
	var err error
	if lf.Fleet, err = fleet.New(topo, cfg); err != nil {
		return nil, err
	}
	lf.orch, err = orchestrator.New(orchestrator.Config{Topo: topo, Budgets: lf.Budgets()}, lf.Ctl)
	if err != nil {
		lf.Close()
		return nil, err
	}
	return lf, nil
}

// waitMerged blocks until the analyzer has merged every expected
// contributor of qid's epoch (the epoch may still be marked partial by
// a width transition — that is the point of the transition flag).
func (an *lineFleet) waitMerged(qid int, epoch uint32) bool {
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, missing, merged := an.Svc.EpochStatus(qid, epoch)
		if merged > 0 && len(missing) == 0 {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// Adaptive runs the closed-loop accuracy experiment: calm -> surge ->
// calm Zipf SYN workload against one accuracy-declared intent, with
// the refiner walking the width ladder from the analyzer's error
// bounds.
func Adaptive(cfg AdaptiveConfig) *AdaptiveResult {
	cfg = cfg.withDefaults()
	res := &AdaptiveResult{
		Seed: cfg.Seed, Rounds: 3 * cfg.RoundsPerPhase,
		RoundsPerPhase: cfg.RoundsPerPhase, ConvergeWithin: cfg.ConvergeWithin,
		Target: cfg.TargetRelErr, ConvergedIn: map[string]int{},
	}
	fail := func(format string, args ...any) *AdaptiveResult {
		res.Violations = append(res.Violations, fmt.Sprintf(format, args...))
		return res
	}

	an, err := newLineFleet(cfg.Switches, cfg.Seed)
	if err != nil {
		return fail("fleet build: %v", err)
	}
	defer an.Close()

	an.orch.SetIntents([]orchestrator.Intent{
		{Query: query.Q1(adaptiveThreshold), Priority: 2,
			MinWidth: cfg.MinWidth, MaxWidth: cfg.MaxWidth, Edges: []string{"s1"},
			Accuracy: query.Accuracy{MaxRelErr: cfg.TargetRelErr}},
		// A static neighbor on the same switch: resizes of q1 must
		// never disturb it.
		{Query: query.Q4(3), Priority: 1, MinWidth: 256, MaxWidth: 1024, Edges: []string{"s1"}},
	})
	if _, _, err := an.orch.Converge(); err != nil {
		return fail("initial converge: %v", err)
	}
	qid1 := an.orch.QID(adaptiveQ1)
	if qid1 == 0 {
		return fail("q1 not deployed")
	}
	if w := an.orch.Deployed()[adaptiveQ1].Width; w != cfg.MinWidth {
		return fail("frugal start width = %d, want %d", w, cfg.MinWidth)
	}
	ref := orchestrator.NewRefiner(an.orch, an.Svc, orchestrator.RefinerConfig{})

	rng := rand.New(rand.NewSource(cfg.Seed))
	// The surge shifts both volume and the Zipf hot set: a different
	// victim base plus a heavier tail.
	type phase struct {
		name string
		pkts int
		base uint32
		zipf *rand.Zipf
	}
	phases := []phase{
		{"calm", cfg.CalmPackets, 0x0A000000, rand.NewZipf(rng, 1.2, 1, 511)},
		{"surge", cfg.SurgePackets, 0x0A400000, rand.NewZipf(rng, 1.1, 1, 1023)},
		{"calm2", cfg.CalmPackets, 0x0A000000, rand.NewZipf(rng, 1.2, 1, 511)},
	}
	lastBad := map[string]int{} // phase -> last 1-based in-phase round observed out of band

	var ts uint64
	for round := 0; round < res.Rounds; round++ {
		ph := phases[round/cfg.RoundsPerPhase]
		inPhase := round%cfg.RoundsPerPhase + 1
		epoch := an.Switches["s1"].Node.Layout.Epoch()
		width := an.orch.Deployed()[adaptiveQ1].Width

		for i := 0; i < ph.pkts; i++ {
			// Virtual timestamps stay far inside one netsim window so
			// epoch rolls come only from the controller tick below.
			ts++
			pkt := &packet.Packet{
				TS: ts,
				IP: packet.IPv4{TTL: 64, Proto: packet.ProtoTCP,
					Src: 0x0B000000 + uint32(rng.Intn(1<<16)),
					Dst: ph.base + uint32(ph.zipf.Uint64())},
				TCP: &packet.TCP{SrcPort: uint16(1024 + rng.Intn(60000)),
					DstPort: 80, Flags: packet.FlagSYN, Window: 65535},
			}
			an.Net.Deliver(pkt, an.h1, an.h2)
		}
		if err := an.Ctl.Tick(); err != nil {
			res.Violations = append(res.Violations, fmt.Sprintf("round %d: tick: %v", round+1, err))
		}
		if !an.waitMerged(qid1, epoch) {
			res.Violations = append(res.Violations, fmt.Sprintf("round %d: epoch %d never merged", round+1, epoch))
			continue
		}

		rep, err := ref.Step()
		if err != nil {
			res.Violations = append(res.Violations, fmt.Sprintf("round %d: refine: %v", round+1, err))
		}

		qa, ok := an.Svc.ObservedAccuracy(qid1, epoch, adaptiveThreshold)
		row := AdaptiveRound{Round: round + 1, Phase: ph.name, Epoch: epoch, Width: width}
		if ok {
			row.Width = qa.Width
			row.Observed = qa.Observed()
			row.Settled = !qa.Partial
			row.InBand = row.Observed <= cfg.TargetRelErr
		}
		for _, e := range rep.Events {
			row.Events = append(row.Events, e.String())
			if e.Action == "reject" {
				res.Rejects++
			}
		}
		if row.Settled && !row.InBand {
			lastBad[ph.name] = inPhase
		}
		res.AdaptiveWidthSum += uint64(row.Width)
		res.StaticWidthSum += uint64(cfg.MaxWidth)
		res.Trajectory = append(res.Trajectory, row)

		// A resize must never re-deploy: the qid is the provenance key.
		if got := an.orch.QID(adaptiveQ1); got != qid1 {
			res.QIDChanges++
			res.Violations = append(res.Violations,
				fmt.Sprintf("round %d: qid changed %d -> %d", round+1, qid1, got))
			qid1 = got
		}
		for _, sw := range an.Svc.Contributors(qid1) {
			if sw != "s1" {
				res.ProvenanceMixups++
				res.Violations = append(res.Violations,
					fmt.Sprintf("round %d: contributor %s never hosted q1", round+1, sw))
			}
		}
	}

	// Convergence verdict: the phase is converged from the round after
	// its last settled out-of-band observation.
	for _, ph := range phases {
		res.ConvergedIn[ph.name] = lastBad[ph.name] + 1
		if res.ConvergedIn[ph.name] > cfg.ConvergeWithin {
			res.Violations = append(res.Violations, fmt.Sprintf(
				"phase %s converged in %d rounds, budget %d",
				ph.name, res.ConvergedIn[ph.name], cfg.ConvergeWithin))
		}
	}
	for _, st := range ref.States() {
		if st.Query != adaptiveQ1 {
			continue
		}
		res.Widens, res.Narrows = st.Widens, st.Narrows
		res.Resizes, res.Flaps = st.Resizes, st.Flaps
	}
	if res.Flaps != 0 {
		res.Violations = append(res.Violations, fmt.Sprintf("refiner flapped %d times", res.Flaps))
	}
	res.FinalWidth = an.orch.Deployed()[adaptiveQ1].Width
	if res.StaticWidthSum > 0 {
		res.MemRatio = float64(res.AdaptiveWidthSum) / float64(res.StaticWidthSum)
	}
	if res.MemRatio >= 1 {
		res.Violations = append(res.Violations, fmt.Sprintf(
			"adaptive used %.3fx static worst-case memory, want < 1", res.MemRatio))
	}
	// The run must END within tolerance at the adapted width.
	var lastSettled *AdaptiveRound
	for i := range res.Trajectory {
		if res.Trajectory[i].Settled {
			lastSettled = &res.Trajectory[i]
		}
	}
	if lastSettled == nil {
		res.Violations = append(res.Violations, "no settled epochs observed")
	} else if !lastSettled.InBand {
		res.Violations = append(res.Violations, fmt.Sprintf(
			"final settled observation %.4f exceeds tolerance %.4f",
			lastSettled.Observed, cfg.TargetRelErr))
	}
	return res
}
