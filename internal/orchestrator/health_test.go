package orchestrator

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
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

// fakeClock is a manually advanced time source.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func testMonitor(t *testing.T, fleet Fleet, probes *probeScript, mutate func(*HealthConfig)) (*Monitor, *fakeClock) {
	t.Helper()
	clk := &fakeClock{t: time.Unix(1000, 0)}
	cfg := HealthConfig{
		Probe:        probes.probe,
		SuspectAfter: 1,
		DownAfter:    2,
		RecoverAfter: 3,
		Now:          clk.now,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	m, err := NewMonitor(fleet, []string{"s1", "s2", "s3"}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m, clk
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
	m, clk := testMonitor(t, fleet, probes, func(c *HealthConfig) {
		c.Offline = func(name string, off bool) error {
			offline = append(offline, fmt.Sprintf("%s=%v", name, off))
			return nil
		}
	})

	probes.set("s2", errors.New("connection refused"))

	clk.advance(time.Second)
	m.Tick()
	wantState(t, m, "s2", Suspect)
	if len(fleet.callLog()) != 0 {
		t.Fatalf("fleet touched while merely suspect: %v", fleet.callLog())
	}

	clk.advance(time.Second)
	m.Tick()
	wantState(t, m, "s2", Suspect)

	clk.advance(time.Second)
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
	clk.advance(time.Second)
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
	m, clk := testMonitor(t, fleet, probes, nil)

	probes.set("s1", errors.New("timeout"))
	clk.advance(time.Second)
	m.Tick()
	wantState(t, m, "s1", Suspect)

	probes.set("s1", nil)
	clk.advance(time.Second)
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
	m, clk := testMonitor(t, fleet, probes, func(c *HealthConfig) {
		c.Offline = func(name string, off bool) error {
			offline = append(offline, fmt.Sprintf("%s=%v", name, off))
			return nil
		}
	})

	probes.set("s3", errors.New("reset"))
	for i := 0; i < 3; i++ {
		clk.advance(time.Second)
		m.Tick()
	}
	wantState(t, m, "s3", Down)

	// Two good rounds, then a flap: back to Down, recovery count reset.
	probes.set("s3", nil)
	clk.advance(time.Second)
	m.Tick()
	wantState(t, m, "s3", Recovering)
	clk.advance(time.Second)
	m.Tick()
	wantState(t, m, "s3", Recovering)
	probes.set("s3", errors.New("reset again"))
	clk.advance(time.Second)
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
		clk.advance(time.Second)
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

// TestConvergeRetryAfterError: a failed converge leaves the monitor
// dirty, and a later tick retries it even with no new transitions.
func TestConvergeRetryAfterError(t *testing.T) {
	fleet := newFakeFleet()
	probes := &probeScript{}
	m, clk := testMonitor(t, fleet, probes, nil)

	fleet.mu.Lock()
	fleet.convErr = errors.New("deploy raced a dying switch")
	fleet.mu.Unlock()

	probes.set("s1", errors.New("dead"))
	for i := 0; i < 3; i++ {
		clk.advance(time.Second)
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
	clk.advance(time.Second)
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
	m, _ := testMonitor(t, fleet, probes, nil)
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
// whose telemetry stream has gone silent past MaxSilence is drained all
// the same.
func TestLivenessSilenceDrains(t *testing.T) {
	fleet := newFakeFleet()
	probes := &probeScript{}
	var silentSince time.Time
	m, clk := testMonitor(t, fleet, probes, func(c *HealthConfig) {
		c.MaxSilence = 5 * time.Second
		c.Liveness = func(name string) (time.Time, bool, bool) {
			if name == "s2" {
				return silentSince, true, true
			}
			return c.Now(), true, true
		}
	})
	silentSince = clk.now()

	// Fresh telemetry: healthy.
	clk.advance(time.Second)
	m.Tick()
	wantState(t, m, "s2", Healthy)

	// Freeze s2's last-seen and advance past MaxSilence: consecutive
	// silent rounds walk it to Down even though probes keep succeeding.
	// (The first advance still lands inside MaxSilence, so four rounds
	// yield the three bad ones the default ladder needs.)
	for i := 0; i < 4; i++ {
		clk.advance(3 * time.Second)
		m.Tick()
	}
	wantState(t, m, "s2", Down)
	snap := m.Snapshot()
	for _, sw := range snap.Switches {
		if sw.Switch == "s2" && sw.DrainReason == "" {
			t.Fatal("telemetry-silence drain carries no reason")
		}
	}
}

// TestForgetFiresOncePerOutage: a switch down past ForgetAfter triggers
// OnForget exactly once, and the forgotten flag resets on a fresh
// outage.
func TestForgetFiresOncePerOutage(t *testing.T) {
	fleet := newFakeFleet()
	probes := &probeScript{}
	var forgets []string
	m, clk := testMonitor(t, fleet, probes, func(c *HealthConfig) {
		c.ForgetAfter = 10 * time.Second
		c.OnForget = func(name string) { forgets = append(forgets, name) }
	})

	probes.set("s1", errors.New("gone"))
	for i := 0; i < 3; i++ {
		clk.advance(time.Second)
		m.Tick()
	}
	wantState(t, m, "s1", Down)

	for i := 0; i < 5; i++ {
		clk.advance(4 * time.Second)
		m.Tick()
	}
	if len(forgets) != 1 || forgets[0] != "s1" {
		t.Fatalf("forgets = %v, want exactly [s1]", forgets)
	}

	// Recover, then fail again: the new outage may forget again.
	probes.set("s1", nil)
	for i := 0; i < 3; i++ {
		clk.advance(time.Second)
		m.Tick()
	}
	wantState(t, m, "s1", Healthy)
	probes.set("s1", errors.New("gone again"))
	for i := 0; i < 3; i++ {
		clk.advance(time.Second)
		m.Tick()
	}
	for i := 0; i < 5; i++ {
		clk.advance(4 * time.Second)
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
	m, clk := testMonitor(t, fleet, probes, nil)

	probes.set("s2", errors.New("dead"))
	for i := 0; i < 3; i++ {
		clk.advance(time.Second)
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
		}
	}
	if !sawDrain {
		t.Fatalf("event log missing the auto-drain: %v", snap.Events)
	}
	if s := snap.String(); s == "" {
		t.Fatal("empty snapshot rendering")
	}
}
