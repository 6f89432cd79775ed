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
	"cmp"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"github.com/newton-net/newton/internal/orchestrator"
	"github.com/newton-net/newton/internal/packet"
	"github.com/newton-net/newton/internal/query"
)

// adaptiveQ1 is the accuracy-driven intent under test;
// adaptiveThreshold is its report threshold, which doubles as the error
// scale.
const (
	adaptiveQ1        = "q1_new_tcp_connections"
	adaptiveThreshold = 50
)

// AdaptiveConfig parameterizes the closed-loop run: three switches, the
// adaptive query on s1 (the others host nothing and prove resize
// locality), three phases of adaptivePhaseRounds rounds.
type AdaptiveConfig struct {
	// Seed drives the Zipf workload and client jitter (default 1).
	Seed int64
}

// The run's schedule, workload and budgets.
const (
	// adaptivePhaseRounds is how many traffic rounds (= epochs) each of
	// the calm, surge and calm phases lasts.
	adaptivePhaseRounds = 12
	// adaptiveConvergeWithin is R: after a phase shift the observed error
	// must be back under tolerance — and stay there — within this many
	// rounds.
	adaptiveConvergeWithin = 6
	// adaptiveTarget is the intent's declared error tolerance, relative
	// to adaptiveThreshold.
	adaptiveTarget = 0.25
	// SYN packets per round in the calm and surge phases.
	adaptiveCalmPackets  = 2000
	adaptiveSurgePackets = 12000
	// The width ladder's bounds. The widest is also the static worst-case
	// provisioning the adaptive run is charged against.
	adaptiveMinWidth, adaptiveMaxWidth = 256, 8192
)

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

// String renders the row as the trajectory table prints it.
func (row AdaptiveRound) String() string {
	obs := fmt.Sprintf("%.4f", row.Observed)
	if !row.Settled {
		obs += "*"
	}
	band := "yes"
	if !row.InBand {
		band = "NO"
	}
	return fmt.Sprintf("%-6d %-6s %-6d %-7d %-9s %-8s %s\n",
		row.Round, row.Phase, row.Epoch, row.Width, obs, band, strings.Join(row.Events, "; "))
}

// AdaptiveResult is the run's trajectory, metrics, and verdict.
// Violations collects every failed assertion; an empty list is a pass.
type AdaptiveResult struct {
	Seed                         int64
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
	// Log is the run's per-round log: the same bytes at a seed.
	Log string
}

// Passed reports whether every closed-loop property held.
func (r *AdaptiveResult) Passed() bool { return len(r.Violations) == 0 }

// Metrics flattens the result for the bench harness's JSON record.
func (r *AdaptiveResult) Metrics() map[string]float64 {
	m := map[string]float64{
		"rounds":            3 * adaptivePhaseRounds,
		"target_rel_err":    adaptiveTarget,
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
		r.Seed, 3*adaptivePhaseRounds, adaptivePhaseRounds, adaptiveTarget)
	fmt.Fprintf(&b, "%-6s %-6s %-6s %-7s %-9s %-8s %s\n",
		"round", "phase", "epoch", "width", "observed", "in-band", "events")
	for _, row := range r.Trajectory {
		b.WriteString(row.String())
	}
	b.WriteString("(* = transition/partial epoch: estimate shown, never drives control)\n")
	phases := make([]string, 0, len(r.ConvergedIn))
	for ph := range r.ConvergedIn {
		phases = append(phases, ph)
	}
	sort.Strings(phases)
	for _, ph := range phases {
		fmt.Fprintf(&b, "converged[%s] = round %d of phase (budget %d)\n",
			ph, r.ConvergedIn[ph], adaptiveConvergeWithin)
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

// Adaptive runs the closed-loop accuracy experiment: calm -> surge ->
// calm Zipf SYN workload against one accuracy-declared intent, with
// the refiner walking the width ladder from the analyzer's error
// bounds.
func Adaptive(cfg AdaptiveConfig) *AdaptiveResult {
	seed := cmp.Or(cfg.Seed, 1)
	res := &AdaptiveResult{Seed: seed, ConvergedIn: map[string]int{}}
	e, err := newEngine(fleetSpec{switches: 3}, seed)
	if err != nil {
		res.Violations = []string{fmt.Sprintf("fleet build: %v", err)}
		return res
	}
	defer func() {
		res.Violations, res.Log = e.errs, e.log.String()
		e.Close()
	}()

	e.orch.SetIntents([]orchestrator.Intent{
		{Query: query.Q1(adaptiveThreshold), Priority: 2,
			MinWidth: adaptiveMinWidth, MaxWidth: adaptiveMaxWidth, Edges: []string{"s1"},
			Accuracy: query.Accuracy{MaxRelErr: adaptiveTarget}},
		// A static neighbor on the same switch: resizes of q1 must
		// never disturb it.
		{Query: query.Q4(3), Priority: 1, MinWidth: 256, MaxWidth: 1024, Edges: []string{"s1"}},
	})
	if _, _, err := e.orch.Converge(); err != nil {
		e.fail("initial converge: %v", err)
		return res
	}
	qid1 := e.orch.QID(adaptiveQ1)
	if qid1 == 0 {
		e.fail("q1 not deployed")
		return res
	}
	if w := e.orch.Deployed()[adaptiveQ1].Width; w != adaptiveMinWidth {
		e.fail("frugal start width = %d, want %d", w, adaptiveMinWidth)
		return res
	}
	ref := orchestrator.NewRefiner(e.orch, e.Svc, orchestrator.RefinerConfig{})

	rng := rand.New(rand.NewSource(seed))
	// The surge shifts both volume and the Zipf hot set: a different
	// victim base plus a heavier tail.
	type phase struct {
		name string
		pkts int
		base uint32
		zipf *rand.Zipf
	}
	phases := []phase{
		{"calm", adaptiveCalmPackets, 0x0A000000, rand.NewZipf(rng, 1.2, 1, 511)},
		{"surge", adaptiveSurgePackets, 0x0A400000, rand.NewZipf(rng, 1.1, 1, 1023)},
		{"calm2", adaptiveCalmPackets, 0x0A000000, rand.NewZipf(rng, 1.2, 1, 511)},
	}
	lastBad := map[string]int{} // phase -> last 1-based in-phase round observed out of band

	var ts uint64
	for round := 0; round < 3*adaptivePhaseRounds; round++ {
		ph := phases[round/adaptivePhaseRounds]
		inPhase := round%adaptivePhaseRounds + 1
		epoch := e.Switches["s1"].Node.Layout.Epoch()
		width := e.orch.Deployed()[adaptiveQ1].Width

		pkts := make([]*packet.Packet, ph.pkts)
		for i := range pkts {
			// Virtual timestamps stay far inside one netsim window so
			// epoch rolls come only from the controller tick.
			ts++
			pkts[i] = &packet.Packet{
				TS: ts,
				IP: packet.IPv4{TTL: 64, Proto: packet.ProtoTCP,
					Src: 0x0B000000 + uint32(rng.Intn(1<<16)),
					Dst: ph.base + uint32(ph.zipf.Uint64())},
				TCP: &packet.TCP{SrcPort: uint16(1024 + rng.Intn(60000)),
					DstPort: 80, Flags: packet.FlagSYN, Window: 65535},
			}
		}
		e.deliver(pkts)
		if _, err := e.end(true); err != nil {
			e.fail("round %d: tick: %v", round+1, err)
		}
		if _, missing, merged := e.Svc.EpochStatus(qid1, epoch); merged == 0 || len(missing) > 0 {
			e.fail("round %d: epoch %d never merged", round+1, epoch)
			continue
		}

		rep, err := ref.Step()
		if err != nil {
			e.fail("round %d: refine: %v", round+1, err)
		}

		qa, ok := e.Svc.ObservedAccuracy(qid1, epoch, adaptiveThreshold)
		row := AdaptiveRound{Round: round + 1, Phase: ph.name, Epoch: epoch, Width: width}
		if ok {
			row.Width = qa.Width
			row.Observed = qa.Observed()
			row.Settled = !qa.Partial
			row.InBand = row.Observed <= adaptiveTarget
		}
		for _, ev := range rep.Events {
			row.Events = append(row.Events, ev.String())
			if ev.Action == "reject" {
				res.Rejects++
			}
		}
		e.log.WriteString(row.String())
		if row.Settled && !row.InBand {
			lastBad[ph.name] = inPhase
		}
		res.AdaptiveWidthSum += uint64(row.Width)
		res.StaticWidthSum += adaptiveMaxWidth
		res.Trajectory = append(res.Trajectory, row)

		// A resize must never re-deploy: the qid is the provenance key.
		if got := e.orch.QID(adaptiveQ1); got != qid1 {
			res.QIDChanges++
			e.fail("round %d: qid changed %d -> %d", round+1, qid1, got)
			qid1 = got
		}
		for _, sw := range e.Svc.Contributors(qid1) {
			if sw != "s1" {
				res.ProvenanceMixups++
				e.fail("round %d: contributor %s never hosted q1", round+1, sw)
			}
		}
	}

	// Convergence verdict: the phase is converged from the round after
	// its last settled out-of-band observation.
	for _, ph := range phases {
		res.ConvergedIn[ph.name] = lastBad[ph.name] + 1
		if res.ConvergedIn[ph.name] > adaptiveConvergeWithin {
			e.fail("phase %s converged in %d rounds, budget %d",
				ph.name, res.ConvergedIn[ph.name], adaptiveConvergeWithin)
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
		e.fail("refiner flapped %d times", res.Flaps)
	}
	res.FinalWidth = e.orch.Deployed()[adaptiveQ1].Width
	if res.StaticWidthSum > 0 {
		res.MemRatio = float64(res.AdaptiveWidthSum) / float64(res.StaticWidthSum)
	}
	if res.MemRatio >= 1 {
		e.fail("adaptive used %.3fx static worst-case memory, want < 1", res.MemRatio)
	}
	// The run must END within tolerance at the adapted width.
	var lastSettled *AdaptiveRound
	for i := range res.Trajectory {
		if res.Trajectory[i].Settled {
			lastSettled = &res.Trajectory[i]
		}
	}
	if lastSettled == nil {
		e.fail("no settled epochs observed")
	} else if !lastSettled.InBand {
		e.fail("final settled observation %.4f exceeds tolerance %.4f",
			lastSettled.Observed, adaptiveTarget)
	}
	return res
}
