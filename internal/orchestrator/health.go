// Fleet health: the closed loop that turns the orchestrator's manual
// Drain/Undrain/Converge levers into a self-healing control plane. A
// Monitor consumes two signal classes per switch — an active control-
// channel probe (a Stats round trip through the hardened rpc client,
// so transient faults are already retried away) and the analyzer's
// passive telemetry liveness (has this switch's stream produced a frame
// lately) — and drives a debounced state machine:
//
//	healthy → suspect → down → recovering → healthy
//
// The monitor keeps time in its own rounds: each Tick is one, and every
// count below (debounce, hysteresis, silence, forgetting) is a number of
// them, so a run's transitions do not depend on how fast its caller
// ticks. Consecutive bad evaluation rounds move a switch toward down
// (debounce: one failed probe is never a drain); on entering down the
// monitor marks the switch offline at the controller (so removes
// targeting it are deferred instead of hanging), drains it, and
// converges the fleet — re-placing its queries onto the live switches
// through the ordinary delta Apply, which re-pins the telemetry
// service's expected contributors so merged epochs keep honest
// Partial/Missing provenance throughout. Recovery is hysteretic: a
// down switch must hold RecoverAfter consecutive good rounds before it
// is re-admitted, and any bad round while recovering resets the count
// (a flapping switch stays out). On re-admission the controller first
// flushes the removes deferred while the switch was unreachable, so a
// partitioned-but-alive switch cannot rejoin holding stale programs.
package orchestrator

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// HealthState is one switch's position in the liveness state machine.
type HealthState int

const (
	// Healthy switches are in the plannable fleet and answering.
	Healthy HealthState = iota
	// Suspect switches failed recent checks but are not yet drained.
	Suspect
	// Down switches are drained out of the fleet.
	Down
	// Recovering switches are answering again but have not yet held
	// steady long enough to be re-admitted (hysteresis).
	Recovering
)

// String names the state as `newton-ctl status` prints it.
func (s HealthState) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Suspect:
		return "suspect"
	case Down:
		return "down"
	case Recovering:
		return "recovering"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// Fleet is the slice of the orchestrator the monitor drives. It is an
// interface so the state machine is testable against a fake; the real
// *Orchestrator satisfies it.
type Fleet interface {
	Drain(name string)
	Undrain(name string)
	Converge() (*Plan, Diff, error)
	Plan() (*Plan, Diff, error)
}

// HealthConfig parameterizes a Monitor. Probe is required; everything
// else defaults.
type HealthConfig struct {
	// Probe actively checks one switch's control channel (typically a
	// client.Stats round trip). A nil error is a good signal. The probe
	// should carry its own bounded timeout/retry budget — the monitor
	// runs probes concurrently but waits for all of them each round.
	Probe func(name string) error

	// Liveness, when set, is the passive telemetry signal: how many
	// frames the switch's stream has delivered (telemetry.Service.
	// AgentWire's Frames), ok false for a switch not expected to export.
	// A switch whose count has not moved for more than MaxSilence
	// consecutive rounds has a bad round even when its control channel
	// still answers: monitoring data is the product, and a switch that
	// stopped exporting is not serving its queries.
	Liveness func(name string) (frames uint64, ok bool)
	// MaxSilence is how many rounds a frame count may stand still before
	// the switch counts as silent (0 disables the liveness signal even
	// when Liveness is set).
	MaxSilence int

	// Offline, when set, is called with true when a switch goes down
	// (before it is drained) and false when it is re-admitted (before
	// it is undrained) — wired to controller.Remote.SetOffline so the
	// delta Apply defers removes on the unreachable switch instead of
	// failing, and flushes them when it returns.
	Offline func(name string, offline bool) error

	// DownAfter is how many further bad rounds move a suspect switch to
	// down (default 2) — so with the default a switch is drained on its
	// SuspectAfter+DownAfter = third consecutive bad round.
	DownAfter int
	// RecoverAfter is how many consecutive good rounds a down switch
	// must hold before re-admission (default 3). A single bad round
	// while recovering resets the count — the hysteresis that keeps a
	// flapping switch out of the fleet.
	RecoverAfter int

	// ForgetAfter, when > 0, fires OnForget once for a switch that has
	// stayed down this many rounds — the hook for releasing per-switch
	// bookkeeping held elsewhere (telemetry.Service.ForgetAgent). The
	// switch stays in the state machine and can still recover.
	ForgetAfter int
	OnForget    func(name string)
}

// SuspectAfter is how many consecutive bad rounds move a healthy switch
// to suspect: one failed round is suspicion, never a drain.
const SuspectAfter = 1

func (c HealthConfig) withDefaults() HealthConfig {
	if c.DownAfter <= 0 {
		c.DownAfter = 2
	}
	if c.RecoverAfter <= 0 {
		c.RecoverAfter = 3
	}
	return c
}

// HealthEvent is one entry of the monitor's event log: a state
// transition or a fleet action taken because of one.
type HealthEvent struct {
	Round    int // the monitor round it happened in
	Switch   string
	From, To HealthState
	Action   string // "", "auto-drain", "auto-undrain", "forget"
	Reason   string
}

// String renders the event for logs and `newton-ctl status`.
func (ev HealthEvent) String() string {
	s := fmt.Sprintf("r%-4d %-12s %s -> %s", ev.Round, ev.Switch, ev.From, ev.To)
	if ev.Action != "" {
		s += " [" + ev.Action + "]"
	}
	if ev.Reason != "" {
		s += " (" + ev.Reason + ")"
	}
	return s
}

// SwitchHealth is one switch's row in the fleet snapshot.
type SwitchHealth struct {
	Switch      string
	State       HealthState
	LastSeen    int    // round of the last answered probe (0: none since the monitor started)
	LastSeenAge int    // rounds since LastSeen at snapshot time
	LastErr     string // most recent bad-signal reason
	DrainReason string // why the monitor drained it (down/recovering only)
	DownSince   int    // round it entered Down (0 if never)
	Flaps       int    // recoveries that collapsed back to down
	Forgotten   bool   // OnForget fired for the current outage
}

// FleetHealth is the monitor's snapshot API: per-switch state plus the
// fleet-level convergence picture.
type FleetHealth struct {
	Switches      []SwitchHealth // sorted by name
	PendingDeltas int            // diff entries a pure Plan reports right now
	PlanErr       string         // non-empty when the pending-delta plan failed
	AutoDrains    uint64
	AutoUndrains  uint64
	ConvergeErrs  uint64
	Events        []HealthEvent // most recent first-to-last, bounded
}

// String renders the snapshot as `newton-ctl status` prints it.
func (fh FleetHealth) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %-11s %-15s %-8s %s\n", "SWITCH", "STATE", "LAST-SEEN", "FLAPS", "DRAIN-REASON")
	for _, sw := range fh.Switches {
		age := fmt.Sprintf("%d rounds ago", sw.LastSeenAge)
		fmt.Fprintf(&b, "%-14s %-11s %-15s %-8d %s\n", sw.Switch, sw.State, age, sw.Flaps, sw.DrainReason)
	}
	fmt.Fprintf(&b, "pending deltas: %d", fh.PendingDeltas)
	if fh.PlanErr != "" {
		fmt.Fprintf(&b, " (plan error: %s)", fh.PlanErr)
	}
	fmt.Fprintf(&b, "  auto-drains: %d  auto-undrains: %d  converge errors: %d\n",
		fh.AutoDrains, fh.AutoUndrains, fh.ConvergeErrs)
	return b.String()
}

// swHealth is one switch's state machine: the row Snapshot reports is
// the state the machine runs on (LastSeenAge is filled at snapshot
// time), plus the debounce and silence counts.
type swHealth struct {
	SwitchHealth
	bad, good int    // consecutive bad/good rounds in the current state
	frames    uint64 // the telemetry frame count last read
	quiet     int    // consecutive answered rounds frames stood still in
}

// eventLogCap bounds the monitor's in-memory event history.
const eventLogCap = 256

// TickReport summarizes one evaluation round.
type TickReport struct {
	Round       int // this round's number: the first Tick is round 1
	Transitions []HealthEvent
	Drained     []string // switches auto-drained this round
	Undrained   []string // switches auto-undrained this round
	Converged   bool     // a converge ran and succeeded
	ConvergeErr error
	Deltas      int // diff entries the converge applied
}

// Monitor is the fleet health controller. Construct with NewMonitor,
// then call Tick: it is the only entry point, and callers own the
// cadence.
type Monitor struct {
	fleet Fleet
	cfg   HealthConfig

	tickMu sync.Mutex // serializes evaluation rounds

	mu       sync.Mutex // guards everything below
	round    int        // rounds ticked so far
	switches []string
	states   map[string]*swHealth
	events   []HealthEvent
	dirty    bool // a converge is owed (actions taken, or a prior one failed)

	autoDrains   uint64
	autoUndrains uint64
	convergeErrs uint64
	converges    uint64
	convergeDurs []time.Duration // wall time of the newest eventLogCap converges
}

// NewMonitor builds a health monitor over the named switches (for an
// *Orchestrator fleet, pass orch.Switches()).
func NewMonitor(fleet Fleet, switches []string, cfg HealthConfig) (*Monitor, error) {
	if fleet == nil {
		return nil, fmt.Errorf("health: nil fleet")
	}
	if cfg.Probe == nil {
		return nil, fmt.Errorf("health: nil probe")
	}
	if len(switches) == 0 {
		return nil, fmt.Errorf("health: empty switch set")
	}
	cfg = cfg.withDefaults()
	m := &Monitor{fleet: fleet, cfg: cfg, states: map[string]*swHealth{}}
	m.switches = append(m.switches, switches...)
	sort.Strings(m.switches)
	for _, name := range m.switches {
		m.states[name] = &swHealth{SwitchHealth: SwitchHealth{Switch: name, State: Healthy}}
	}
	return m, nil
}

// signal is what one round read of a switch: its probe's answer and,
// when the probe answered, its telemetry frame count.
type signal struct {
	name   string
	err    error  // the probe's
	frames uint64 // telemetry frames delivered, when live
	live   bool   // Liveness counted frames for this switch
}

// collect probes every switch concurrently and reads the telemetry
// liveness of those that answered. No monitor lock is held: probes are
// network calls.
func (m *Monitor) collect(switches []string) []signal {
	sigs := make([]signal, len(switches))
	var wg sync.WaitGroup
	for i, name := range switches {
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			s := signal{name: name, err: m.cfg.Probe(name)}
			if s.err == nil && m.cfg.Liveness != nil && m.cfg.MaxSilence > 0 {
				s.frames, s.live = m.cfg.Liveness(name)
			}
			sigs[i] = s
		}(i, name)
	}
	wg.Wait()
	return sigs
}

// judge folds one round's signal into the switch's last-seen round and
// silence count, and says whether the round was bad and why.
func (st *swHealth) judge(s signal, round, maxSilence int) (bad bool, reason string) {
	if s.err != nil {
		st.quiet = 0
		return true, "probe: " + s.err.Error()
	}
	st.LastSeen = round
	if !s.live || s.frames != st.frames {
		st.frames, st.quiet = s.frames, 0
		return false, ""
	}
	if st.quiet++; st.quiet > maxSilence {
		return true, fmt.Sprintf("telemetry: silent for %d rounds", st.quiet)
	}
	return false, ""
}

// Tick runs one evaluation round: probe, advance every state machine,
// and — when any switch crossed a drain/undrain boundary (or a prior
// converge failed) — drive the fleet's delta machinery.
func (m *Monitor) Tick() TickReport {
	m.tickMu.Lock()
	defer m.tickMu.Unlock()

	m.mu.Lock()
	m.round++
	rep := TickReport{Round: m.round}
	switches := append([]string(nil), m.switches...)
	m.mu.Unlock()
	sigs := m.collect(switches)

	var forgets []string
	m.mu.Lock()
	for _, s := range sigs {
		st := m.states[s.name]
		if st == nil {
			continue
		}
		bad, reason := st.judge(s, rep.Round, m.cfg.MaxSilence)
		if bad {
			st.LastErr = reason
		}
		from := st.State
		var action string
		switch st.State {
		case Healthy:
			if bad {
				st.bad++
				st.good = 0
				if st.bad >= SuspectAfter {
					st.State, st.bad = Suspect, 0
				}
			} else {
				st.bad = 0
			}
		case Suspect:
			if bad {
				st.bad++
				if st.bad >= m.cfg.DownAfter {
					st.State = Down
					st.DownSince, st.DrainReason = rep.Round, reason
					st.bad, st.good, st.Forgotten = 0, 0, false
					action = "auto-drain"
					rep.Drained = append(rep.Drained, s.name)
				}
			} else {
				// One good round clears suspicion: debounce, not hysteresis —
				// that is reserved for re-admission after a drain.
				st.State, st.bad, st.good = Healthy, 0, 0
			}
		case Down:
			if bad {
				if m.cfg.ForgetAfter > 0 && !st.Forgotten && rep.Round-st.DownSince >= m.cfg.ForgetAfter {
					st.Forgotten = true
					forgets = append(forgets, s.name)
					m.logLocked(HealthEvent{Round: rep.Round, Switch: s.name, From: Down, To: Down,
						Action: "forget", Reason: "down past ForgetAfter"})
				}
				break
			}
			// A good round starts recovery: the one re-admission path.
			st.State, st.good = Recovering, 0
			fallthrough
		case Recovering:
			if bad {
				// Flap: back to down without re-draining (it never left).
				st.State, st.good = Down, 0
				st.Flaps++
				st.DrainReason = reason
			} else {
				st.good++
				if st.good >= m.cfg.RecoverAfter {
					st.State, st.good = Healthy, 0
					st.DrainReason = ""
					action = "auto-undrain"
					rep.Undrained = append(rep.Undrained, s.name)
				}
			}
		}
		if st.State != from {
			ev := HealthEvent{Round: rep.Round, Switch: s.name, From: from, To: st.State,
				Action: action, Reason: reason}
			rep.Transitions = append(rep.Transitions, ev)
			m.logLocked(ev)
		}
	}
	if len(rep.Drained)+len(rep.Undrained) > 0 {
		m.dirty = true
	}
	m.autoDrains += uint64(len(rep.Drained))
	m.autoUndrains += uint64(len(rep.Undrained))
	dirty := m.dirty
	m.mu.Unlock()

	for _, name := range forgets {
		if m.cfg.OnForget != nil {
			m.cfg.OnForget(name)
		}
	}

	// Fleet actions, outside m.mu: marking offline and converging can
	// take real time on the control channel.
	for _, name := range rep.Drained {
		if m.cfg.Offline != nil {
			_ = m.cfg.Offline(name, true)
		}
		m.fleet.Drain(name)
	}
	for _, name := range rep.Undrained {
		if m.cfg.Offline != nil {
			// A failed flush means the switch is flaky again; converge
			// below will surface it, and the probes will re-drain it.
			_ = m.cfg.Offline(name, false)
		}
		m.fleet.Undrain(name)
	}
	if dirty {
		start := time.Now()
		_, d, err := m.fleet.Converge()
		elapsed := time.Since(start)
		m.mu.Lock()
		m.converges++
		m.convergeDurs = appendBounded(m.convergeDurs, elapsed)
		if err != nil {
			m.convergeErrs++
			rep.ConvergeErr = err
		} else {
			m.dirty = false
			rep.Converged = true
			rep.Deltas = len(d.Deltas)
		}
		m.mu.Unlock()
	}
	return rep
}

// logLocked appends to the bounded event log. Callers hold m.mu.
func (m *Monitor) logLocked(ev HealthEvent) { m.events = appendBounded(m.events, ev) }

// appendBounded appends v to log, keeping only the newest eventLogCap
// entries: a monitor runs for months.
func appendBounded[T any](log []T, v T) []T {
	if len(log) >= eventLogCap {
		log = log[:copy(log, log[len(log)-eventLogCap+1:])]
	}
	return append(log, v)
}

// State returns one switch's current health state (Healthy, false when
// the switch is unknown).
func (m *Monitor) State(name string) (HealthState, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	st, ok := m.states[name]
	if !ok {
		return Healthy, false
	}
	return st.State, true
}

// ConvergeDurations returns the wall time of the newest eventLogCap
// converges the monitor drove, in order — the auto-heal deploy latencies
// the soak's p99 is computed over.
func (m *Monitor) ConvergeDurations() []time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]time.Duration(nil), m.convergeDurs...)
}

// Events returns a copy of the bounded event log.
func (m *Monitor) Events() []HealthEvent {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]HealthEvent(nil), m.events...)
}

// Snapshot assembles the fleet health view `newton-ctl status` renders:
// per-switch state with last-seen ages and drain reasons, plus the
// pending delta count from a pure (agent-free) Plan.
func (m *Monitor) Snapshot() FleetHealth {
	m.mu.Lock()
	fh := FleetHealth{
		AutoDrains:   m.autoDrains,
		AutoUndrains: m.autoUndrains,
		ConvergeErrs: m.convergeErrs,
		Events:       append([]HealthEvent(nil), m.events...),
	}
	for _, name := range m.switches {
		row := m.states[name].SwitchHealth
		row.LastSeenAge = m.round - row.LastSeen
		fh.Switches = append(fh.Switches, row)
	}
	m.mu.Unlock()

	if _, d, err := m.fleet.Plan(); err != nil {
		fh.PlanErr = err.Error()
	} else {
		fh.PendingDeltas = len(d.Deltas)
	}
	return fh
}
