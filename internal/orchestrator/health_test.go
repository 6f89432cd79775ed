package orchestrator

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

// fakeFleet records the monitor's actions against a scriptable fleet.
type fakeFleet struct {
	mu        sync.Mutex
	drained   map[string]bool
	calls     []string
	converges int
	convErr   error
	pending   int // deltas a pure Plan reports
}

func newFakeFleet() *fakeFleet {
	return &fakeFleet{drained: map[string]bool{}}
}

func (f *fakeFleet) Drain(name string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.drained[name] = true
	f.calls = append(f.calls, "drain:"+name)
}

func (f *fakeFleet) Undrain(name string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.drained, name)
	f.calls = append(f.calls, "undrain:"+name)
}

func (f *fakeFleet) Converge() (*Plan, Diff, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.calls = append(f.calls, "converge")
	if f.convErr != nil {
		return nil, Diff{}, f.convErr
	}
	f.converges++
	return &Plan{}, Diff{Deltas: []Delta{{}}}, nil
}

func (f *fakeFleet) Plan() (*Plan, Diff, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	d := Diff{}
	for i := 0; i < f.pending; i++ {
		d.Deltas = append(d.Deltas, Delta{})
	}
	return &Plan{}, d, nil
}

func (f *fakeFleet) callLog() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]string(nil), f.calls...)
}

// probeScript answers probes from a mutable per-switch error map.
type probeScript struct {
	mu   sync.Mutex
	errs map[string]error
}

func (p *probeScript) set(name string, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.errs == nil {
		p.errs = map[string]error{}
	}
	p.errs[name] = err
}

func (p *probeScript) probe(name string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.errs[name]
}

func testMonitor(t *testing.T, fleet Fleet, probes *probeScript, mutate func(*HealthConfig)) *Monitor {
	t.Helper()
	cfg := HealthConfig{
		Probe:        probes.probe,
		DownAfter:    2,
		RecoverAfter: 3,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	m, err := NewMonitor(fleet, []string{"s1", "s2", "s3"}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func wantState(t *testing.T, m *Monitor, name string, want HealthState) {
	t.Helper()
	got, ok := m.State(name)
	if !ok {
		t.Fatalf("unknown switch %q", name)
	}
	if got != want {
		t.Fatalf("switch %q state = %v, want %v", name, got, want)
	}
}

// TestDebounceToDrain walks a switch through the bad-round ladder:
// one bad round is only suspicion, and the drain fires exactly when
// DownAfter further bad rounds accumulate — with the offline flip
// ordered before the drain and exactly one converge after.
func TestDebounceToDrain(t *testing.T) {
	fleet := newFakeFleet()
	probes := &probeScript{}
	var offline []string
	m := testMonitor(t, fleet, probes, func(c *HealthConfig) {
		c.Offline = func(name string, off bool) error {
			offline = append(offline, fmt.Sprintf("%s=%v", name, off))
			return nil
		}
	})

	probes.set("s2", errors.New("connection refused"))

	m.Tick()
	wantState(t, m, "s2", Suspect)
	if len(fleet.callLog()) != 0 {
		t.Fatalf("fleet touched while merely suspect: %v", fleet.callLog())
	}

	m.Tick()
	wantState(t, m, "s2", Suspect)

	rep := m.Tick()
	wantState(t, m, "s2", Down)
	if len(rep.Drained) != 1 || rep.Drained[0] != "s2" {
		t.Fatalf("Drained = %v, want [s2]", rep.Drained)
	}
	if !rep.Converged {
		t.Fatalf("no converge after auto-drain: %+v", rep)
	}
	got := fleet.callLog()
	want := []string{"drain:s2", "converge"}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("fleet calls = %v, want %v", got, want)
	}
	if len(offline) != 1 || offline[0] != "s2=true" {
		t.Fatalf("offline flips = %v, want [s2=true]", offline)
	}
	// Healthy switches never moved.
	wantState(t, m, "s1", Healthy)
	wantState(t, m, "s3", Healthy)

	// A steady-state tick with nothing to do drives no fleet calls.
	m.Tick()
	if calls := fleet.callLog(); len(calls) != len(want) {
		t.Fatalf("steady-state tick touched the fleet: %v", calls)
	}
}

// TestSuspectClearsOnOneGoodRound checks the debounce asymmetry: a
// suspect switch (never drained) is cleared by a single good round,
// without hysteresis.
func TestSuspectClearsOnOneGoodRound(t *testing.T) {
	fleet := newFakeFleet()
	probes := &probeScript{}
	m := testMonitor(t, fleet, probes, nil)

	probes.set("s1", errors.New("timeout"))
	m.Tick()
	wantState(t, m, "s1", Suspect)

	probes.set("s1", nil)
	m.Tick()
	wantState(t, m, "s1", Healthy)
	if len(fleet.callLog()) != 0 {
		t.Fatalf("fleet touched during suspect blip: %v", fleet.callLog())
	}
}

// TestHysteresisHoldsFlappingSwitchOut drives a down switch through a
// good/bad flap and asserts it is not re-admitted until it holds
// RecoverAfter consecutive good rounds.
func TestHysteresisHoldsFlappingSwitchOut(t *testing.T) {
	fleet := newFakeFleet()
	probes := &probeScript{}
	var offline []string
	m := testMonitor(t, fleet, probes, func(c *HealthConfig) {
		c.Offline = func(name string, off bool) error {
			offline = append(offline, fmt.Sprintf("%s=%v", name, off))
			return nil
		}
	})

	probes.set("s3", errors.New("reset"))
	for i := 0; i < 3; i++ {
		m.Tick()
	}
	wantState(t, m, "s3", Down)

	// Two good rounds, then a flap: back to Down, recovery count reset.
	probes.set("s3", nil)
	m.Tick()
	wantState(t, m, "s3", Recovering)
	m.Tick()
	wantState(t, m, "s3", Recovering)
	probes.set("s3", errors.New("reset again"))
	m.Tick()
	wantState(t, m, "s3", Down)

	// Through the flap the switch was never undrained.
	for _, c := range fleet.callLog() {
		if c == "undrain:s3" {
			t.Fatalf("flapping switch re-admitted: %v", fleet.callLog())
		}
	}

	// Now three clean rounds re-admit it, flushing offline first.
	probes.set("s3", nil)
	for i := 0; i < 3; i++ {
		m.Tick()
	}
	wantState(t, m, "s3", Healthy)
	calls := fleet.callLog()
	if calls[len(calls)-2] != "undrain:s3" || calls[len(calls)-1] != "converge" {
		t.Fatalf("recovery tail = %v, want [... undrain:s3 converge]", calls)
	}
	if offline[len(offline)-1] != "s3=false" {
		t.Fatalf("offline flips = %v, want trailing s3=false", offline)
	}

	snap := m.Snapshot()
	for _, sw := range snap.Switches {
		if sw.Switch == "s3" {
			if sw.Flaps != 1 {
				t.Fatalf("s3 flaps = %d, want 1", sw.Flaps)
			}
			if sw.DrainReason != "" {
				t.Fatalf("healthy switch keeps drain reason %q", sw.DrainReason)
			}
		}
	}
}

// TestRecoverAfterOneClearsDrainReason: with RecoverAfter 1 a down
// switch is re-admitted by its first good round, through the same path
// as a longer recovery — so it comes back Healthy with no drain reason
// and exactly one auto-undrain event.
func TestRecoverAfterOneClearsDrainReason(t *testing.T) {
	fleet := newFakeFleet()
	probes := &probeScript{}
	m := testMonitor(t, fleet, probes, func(c *HealthConfig) { c.RecoverAfter = 1 })

	probes.set("s2", errors.New("link down"))
	for i := 0; i < 3; i++ {
		m.Tick()
	}
	wantState(t, m, "s2", Down)

	probes.set("s2", nil)
	rep := m.Tick()
	wantState(t, m, "s2", Healthy)
	if len(rep.Undrained) != 1 || rep.Undrained[0] != "s2" {
		t.Fatalf("Undrained = %v, want [s2]", rep.Undrained)
	}
	for _, sw := range m.Snapshot().Switches {
		if sw.Switch == "s2" && sw.DrainReason != "" {
			t.Fatalf("healthy switch keeps drain reason %q", sw.DrainReason)
		}
	}
	undrains := 0
	for _, ev := range m.Events() {
		if ev.Switch == "s2" && ev.Action == "auto-undrain" {
			undrains++
		}
	}
	if undrains != 1 {
		t.Fatalf("auto-undrain events = %d, want 1:\n%v", undrains, m.Events())
	}
}

// TestConvergeRetryAfterError: a failed converge leaves the monitor
// dirty, and a later tick retries it even with no new transitions.
func TestConvergeRetryAfterError(t *testing.T) {
	fleet := newFakeFleet()
	probes := &probeScript{}
	m := testMonitor(t, fleet, probes, nil)

	fleet.mu.Lock()
	fleet.convErr = errors.New("deploy raced a dying switch")
	fleet.mu.Unlock()

	probes.set("s1", errors.New("dead"))
	for i := 0; i < 3; i++ {
		m.Tick()
	}
	wantState(t, m, "s1", Down)
	snap := m.Snapshot()
	if snap.ConvergeErrs == 0 {
		t.Fatal("converge error not counted")
	}

	fleet.mu.Lock()
	fleet.convErr = nil
	fleet.mu.Unlock()
	rep := m.Tick()
	if !rep.Converged {
		t.Fatalf("dirty monitor did not retry converge: %+v", rep)
	}
}

// TestConvergeLogBounded: a monitor runs for months, so the converge
// durations it keeps are the newest eventLogCap, like the event log.
func TestConvergeLogBounded(t *testing.T) {
	fleet := newFakeFleet()
	probes := &probeScript{}
	m := testMonitor(t, fleet, probes, nil)
	// A failing converge is owed again on every round.
	fleet.mu.Lock()
	fleet.convErr = errors.New("still failing")
	fleet.mu.Unlock()
	probes.set("s1", errors.New("dead"))
	for i := 0; i < 3+2*eventLogCap; i++ {
		m.Tick()
	}
	if got := len(m.ConvergeDurations()); got != eventLogCap {
		t.Fatalf("ConvergeDurations holds %d entries after %d converges, want %d", got, 2*eventLogCap+1, eventLogCap)
	}
}

// TestLivenessSilenceDrains: a switch whose control channel answers but
// whose telemetry frame count has stood still past MaxSilence rounds is
// drained all the same, while switches whose count moves stay healthy.
func TestLivenessSilenceDrains(t *testing.T) {
	fleet := newFakeFleet()
	probes := &probeScript{}
	var frames uint64
	m := testMonitor(t, fleet, probes, func(c *HealthConfig) {
		c.MaxSilence = 1
		c.Liveness = func(name string) (uint64, bool) {
			if name == "s2" {
				return 1, true
			}
			return frames, true
		}
	})

	// Fresh telemetry: healthy.
	frames++
	m.Tick()
	wantState(t, m, "s2", Healthy)

	// s2's count stands still: consecutive silent rounds walk it to Down
	// even though probes keep succeeding. (The first still round lands
	// inside MaxSilence, so four rounds yield the three bad ones the
	// default ladder needs.)
	for i := 0; i < 4; i++ {
		frames++
		m.Tick()
	}
	wantState(t, m, "s2", Down)
	wantState(t, m, "s1", Healthy)
	snap := m.Snapshot()
	for _, sw := range snap.Switches {
		if sw.Switch == "s2" && sw.DrainReason == "" {
			t.Fatal("telemetry-silence drain carries no reason")
		}
	}
}

// TestForgetFiresOncePerOutage: a switch down past ForgetAfter rounds
// triggers OnForget exactly once, and the forgotten flag resets on a
// fresh outage.
func TestForgetFiresOncePerOutage(t *testing.T) {
	fleet := newFakeFleet()
	probes := &probeScript{}
	var forgets []string
	m := testMonitor(t, fleet, probes, func(c *HealthConfig) {
		c.ForgetAfter = 3
		c.OnForget = func(name string) { forgets = append(forgets, name) }
	})

	probes.set("s1", errors.New("gone"))
	for i := 0; i < 3; i++ {
		m.Tick()
	}
	wantState(t, m, "s1", Down)

	// Two rounds down is not yet ForgetAfter; the third is, and the
	// rounds after it forget nothing more.
	for i := 0; i < 2; i++ {
		m.Tick()
	}
	if len(forgets) != 0 {
		t.Fatalf("forgets = %v after 2 rounds down, want none before ForgetAfter", forgets)
	}
	for i := 0; i < 3; i++ {
		m.Tick()
	}
	if len(forgets) != 1 || forgets[0] != "s1" {
		t.Fatalf("forgets = %v, want exactly [s1]", forgets)
	}

	// Recover, then fail again: the new outage may forget again.
	probes.set("s1", nil)
	for i := 0; i < 3; i++ {
		m.Tick()
	}
	wantState(t, m, "s1", Healthy)
	probes.set("s1", errors.New("gone again"))
	for i := 0; i < 3+5; i++ {
		m.Tick()
	}
	if len(forgets) != 2 {
		t.Fatalf("forgets = %v, want two entries after a second outage", forgets)
	}
}

// TestSnapshotReportsPendingDeltas: the snapshot's pending-delta count
// comes from a pure Plan and the event log records the drain.
func TestSnapshotReportsPendingDeltas(t *testing.T) {
	fleet := newFakeFleet()
	fleet.pending = 3
	probes := &probeScript{}
	m := testMonitor(t, fleet, probes, nil)

	probes.set("s2", errors.New("dead"))
	for i := 0; i < 3; i++ {
		m.Tick()
	}

	snap := m.Snapshot()
	if snap.PendingDeltas != 3 {
		t.Fatalf("PendingDeltas = %d, want 3", snap.PendingDeltas)
	}
	if snap.AutoDrains != 1 {
		t.Fatalf("AutoDrains = %d, want 1", snap.AutoDrains)
	}
	var sawDrain bool
	for _, ev := range snap.Events {
		if ev.Switch == "s2" && ev.Action == "auto-drain" {
			sawDrain = true
			// The third bad round drains: SuspectAfter + DownAfter.
			if ev.Round != SuspectAfter+2 || ev.Round != snap.Switches[1].DownSince {
				t.Fatalf("auto-drain in round %d (DownSince %d), want round %d", ev.Round, snap.Switches[1].DownSince, SuspectAfter+2)
			}
		}
	}
	if !sawDrain {
		t.Fatalf("event log missing the auto-drain: %v", snap.Events)
	}
	// Ages count rounds: s2 has not answered since the monitor started,
	// s1 answered this round.
	if s1, s2 := snap.Switches[0], snap.Switches[1]; s1.LastSeen != 3 || s1.LastSeenAge != 0 || s2.LastSeen != 0 || s2.LastSeenAge != 3 {
		t.Fatalf("last seen s1 = %d (age %d), s2 = %d (age %d); want 3 (0) and 0 (3)",
			s1.LastSeen, s1.LastSeenAge, s2.LastSeen, s2.LastSeenAge)
	}
	if s := snap.String(); s == "" {
		t.Fatal("empty snapshot rendering")
	}
}
