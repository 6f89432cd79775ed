// Fleet health: the closed loop that turns the orchestrator's manual
// Drain/Undrain/Converge levers into a self-healing control plane. A
// Monitor consumes two signal classes per switch — an active control-
// channel probe (a Stats round trip through the hardened rpc client,
// so transient faults are already retried away) and the analyzer's
// passive telemetry liveness (when did this switch's stream last
// produce a frame) — and drives a debounced state machine:
//
//	healthy → suspect → down → recovering → healthy
//
// Consecutive bad evaluation rounds move a switch toward down
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

	// Liveness, when set, is the passive telemetry signal — wired to
	// telemetry.Service.AgentLiveness. A switch whose stream has
	// produced no frame for more than MaxSilence counts as a bad round
	// even when its control channel still answers: monitoring data is
	// the product, and a switch that stopped exporting is not serving
	// its queries.
	Liveness func(name string) (lastSeen time.Time, connected bool, ok bool)
	// MaxSilence is the telemetry last-seen age beyond which a switch
	// counts as silent (0 disables the liveness signal even when
	// Liveness is set).
	MaxSilence time.Duration

	// Offline, when set, is called with true when a switch goes down
	// (before it is drained) and false when it is re-admitted (before
	// it is undrained) — wired to controller.Remote.SetOffline so the
	// delta Apply defers removes on the unreachable switch instead of
	// failing, and flushes them when it returns.
	Offline func(name string, offline bool) error

	// SuspectAfter is how many consecutive bad rounds move a healthy
	// switch to suspect (default 1). DownAfter is how many further bad
	// rounds move a suspect switch to down (default 2) — so with the
	// defaults a switch is drained on its third consecutive bad round.
	SuspectAfter int
	DownAfter    int
	// RecoverAfter is how many consecutive good rounds a down switch
	// must hold before re-admission (default 3). A single bad round
	// while recovering resets the count — the hysteresis that keeps a
	// flapping switch out of the fleet.
	RecoverAfter int

	// ForgetAfter, when > 0, fires OnForget once for a switch that has
	// stayed down this long — the hook for releasing per-switch
	// bookkeeping held elsewhere (telemetry.Service.ForgetAgent). The
	// switch stays in the state machine and can still recover.
	ForgetAfter time.Duration
	OnForget    func(name string)

	// Now overrides the clock. Kept as a field because the last-seen,
	// silence and ForgetAfter tests would otherwise sleep through real
	// time.
	Now func() time.Time
}

func (c HealthConfig) withDefaults() HealthConfig {
	if c.SuspectAfter <= 0 {
		c.SuspectAfter = 1
	}
	if c.DownAfter <= 0 {
		c.DownAfter = 2
	}
	if c.RecoverAfter <= 0 {
		c.RecoverAfter = 3
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// HealthEvent is one entry of the monitor's event log: a state
// transition or a fleet action taken because of one.
type HealthEvent struct {
	At       time.Time
	Switch   string
	From, To HealthState
	Action   string // "", "auto-drain", "auto-undrain", "forget"
	Reason   string
}

// String renders the event for logs and `newton-ctl status`.
func (ev HealthEvent) String() string {
	s := fmt.Sprintf("%-12s %s -> %s", ev.Switch, ev.From, ev.To)
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
	LastSeen    time.Time     // last good signal (probe or telemetry frame)
	LastSeenAge time.Duration // age of LastSeen at snapshot time
	LastErr     string        // most recent bad-signal reason
	DrainReason string        // why the monitor drained it (down/recovering only)
	DownSince   time.Time     // when it entered Down (zero if never)
	Flaps       int           // recoveries that collapsed back to down
	Forgotten   bool          // OnForget fired for the current outage
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
	fmt.Fprintf(&b, "%-14s %-11s %-12s %-8s %s\n", "SWITCH", "STATE", "LAST-SEEN", "FLAPS", "DRAIN-REASON")
	for _, sw := range fh.Switches {
		age := "never"
		if !sw.LastSeen.IsZero() {
			age = sw.LastSeenAge.Round(time.Millisecond).String() + " ago"
		}
		fmt.Fprintf(&b, "%-14s %-11s %-12s %-8d %s\n", sw.Switch, sw.State, age, sw.Flaps, sw.DrainReason)
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
// time), plus the debounce counts.
type swHealth struct {
	SwitchHealth
	bad, good int // consecutive bad/good rounds in the current state
}

// eventLogCap bounds the monitor's in-memory event history.
const eventLogCap = 256

// TickReport summarizes one evaluation round.
type TickReport struct {
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
	now := cfg.Now()
	for _, name := range m.switches {
		m.states[name] = &swHealth{SwitchHealth: SwitchHealth{Switch: name, State: Healthy, LastSeen: now}}
	}
	return m, nil
}

// signal is one round's combined health verdict for a switch.
type signal struct {
	name    string
	bad     bool
	reason  string
	seenAt  time.Time // non-zero when a good signal carries a timestamp
	hasSeen bool
}

// collect probes every switch concurrently and folds in the telemetry
// liveness signal. No monitor lock is held: probes are network calls.
func (m *Monitor) collect(now time.Time, switches []string) []signal {
	sigs := make([]signal, len(switches))
	var wg sync.WaitGroup
	for i, name := range switches {
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			s := signal{name: name}
			if err := m.cfg.Probe(name); err != nil {
				s.bad, s.reason = true, "probe: "+err.Error()
			} else {
				s.seenAt, s.hasSeen = now, true
			}
			if !s.bad && m.cfg.Liveness != nil && m.cfg.MaxSilence > 0 {
				if last, _, ok := m.cfg.Liveness(name); ok {
					if age := now.Sub(last); age > m.cfg.MaxSilence {
						s.bad = true
						s.reason = fmt.Sprintf("telemetry: silent for %v", age.Round(time.Millisecond))
					} else if last.After(s.seenAt) {
						s.seenAt, s.hasSeen = last, true
					}
				}
			}
			sigs[i] = s
		}(i, name)
	}
	wg.Wait()
	return sigs
}

// Tick runs one evaluation round: probe, advance every state machine,
// and — when any switch crossed a drain/undrain boundary (or a prior
// converge failed) — drive the fleet's delta machinery.
func (m *Monitor) Tick() TickReport {
	m.tickMu.Lock()
	defer m.tickMu.Unlock()

	now := m.cfg.Now()
	m.mu.Lock()
	switches := append([]string(nil), m.switches...)
	m.mu.Unlock()
	sigs := m.collect(now, switches)

	var rep TickReport
	var forgets []string
	m.mu.Lock()
	for _, s := range sigs {
		st := m.states[s.name]
		if st == nil {
			continue
		}
		if s.hasSeen && s.seenAt.After(st.LastSeen) {
			st.LastSeen = s.seenAt
		}
		if s.bad {
			st.LastErr = s.reason
		}
		from := st.State
		var action string
		switch st.State {
		case Healthy:
			if s.bad {
				st.bad++
				st.good = 0
				if st.bad >= m.cfg.SuspectAfter {
					st.State, st.bad = Suspect, 0
				}
			} else {
				st.bad = 0
			}
		case Suspect:
			if s.bad {
				st.bad++
				if st.bad >= m.cfg.DownAfter {
					st.State = Down
					st.DownSince, st.DrainReason = now, s.reason
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
			if s.bad {
				if m.cfg.ForgetAfter > 0 && !st.Forgotten && now.Sub(st.DownSince) >= m.cfg.ForgetAfter {
					st.Forgotten = true
					forgets = append(forgets, s.name)
				}
			} else {
				st.State, st.good = Recovering, 1
				if st.good >= m.cfg.RecoverAfter {
					st.State, st.good = Healthy, 0
					action = "auto-undrain"
					rep.Undrained = append(rep.Undrained, s.name)
				}
			}
		case Recovering:
			if s.bad {
				// Flap: back to down without re-draining (it never left).
				st.State, st.good = Down, 0
				st.Flaps++
				st.DrainReason = s.reason
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
			ev := HealthEvent{At: now, Switch: s.name, From: from, To: st.State,
				Action: action, Reason: s.reason}
			if !s.bad && action == "" {
				ev.Reason = ""
			}
			rep.Transitions = append(rep.Transitions, ev)
			m.logLocked(ev)
		}
	}
	if len(rep.Drained)+len(rep.Undrained) > 0 {
		m.dirty = true
	}
	dirty := m.dirty
	m.mu.Unlock()

	for _, name := range forgets {
		ev := HealthEvent{At: now, Switch: name, From: Down, To: Down,
			Action: "forget", Reason: "down past ForgetAfter"}
		m.mu.Lock()
		m.logLocked(ev)
		m.mu.Unlock()
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
		m.bump(&m.autoDrains)
	}
	for _, name := range rep.Undrained {
		if m.cfg.Offline != nil {
			// A failed flush means the switch is flaky again; converge
			// below will surface it, and the probes will re-drain it.
			_ = m.cfg.Offline(name, false)
		}
		m.fleet.Undrain(name)
		m.bump(&m.autoUndrains)
	}
	if dirty {
		start := m.cfg.Now()
		_, d, err := m.fleet.Converge()
		elapsed := m.cfg.Now().Sub(start)
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

// bump increments a monitor counter under the state lock.
func (m *Monitor) bump(p *uint64) {
	m.mu.Lock()
	*p++
	m.mu.Unlock()
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
	now := m.cfg.Now()
	m.mu.Lock()
	fh := FleetHealth{
		AutoDrains:   m.autoDrains,
		AutoUndrains: m.autoUndrains,
		ConvergeErrs: m.convergeErrs,
		Events:       append([]HealthEvent(nil), m.events...),
	}
	for _, name := range m.switches {
		row := m.states[name].SwitchHealth
		row.LastSeenAge = now.Sub(row.LastSeen)
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
