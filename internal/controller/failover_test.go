package controller

import (
	"errors"
	"net"
	"os"
	"testing"
	"time"

	"github.com/newton-net/newton/internal/dataplane"
	"github.com/newton-net/newton/internal/faults"
	"github.com/newton-net/newton/internal/modules"
	"github.com/newton-net/newton/internal/query"
	"github.com/newton-net/newton/internal/rpc"
)

// faultyAgent is one switch agent served over loopback TCP behind a
// fault injector, with a retrying client dialed to it.
type faultyAgent struct {
	sw   *dataplane.Switch
	eng  *modules.Engine
	a    *rpc.Agent
	inj  *faults.Injector
	addr string
}

func newFaultyAgent(t *testing.T, id string, fc faults.Config) *faultyAgent {
	t.Helper()
	sw, eng := bareSwitch(t, id)
	a := rpc.NewAgent(sw, eng)
	inj := faults.New(fc)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go a.Serve(inj.Listener(ln))
	t.Cleanup(func() { a.Close() })
	return &faultyAgent{sw: sw, eng: eng, a: a, inj: inj, addr: ln.Addr().String()}
}

func (fa *faultyAgent) client(t *testing.T, o rpc.Options) *rpc.Client {
	t.Helper()
	c, err := rpc.DialOptions(fa.addr, o)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestShardDeployAllOrNothingUnderPartition: a sharded deploy that
// cannot reach one member rolls every other member back — verified by
// per-switch Stats showing zero residual rules — and reports the
// failure as a typed *PartialDeployError naming the unreachable switch.
func TestShardDeployAllOrNothingUnderPartition(t *testing.T) {
	fast := rpc.Options{
		Timeout: 100 * time.Millisecond, Retries: 2,
		BackoffBase: time.Millisecond, BackoffMax: 5 * time.Millisecond, Seed: 1,
	}
	agents := map[string]*rpc.Client{}
	fas := map[string]*faultyAgent{}
	for _, id := range []string{"a", "b", "c"} {
		fa := newFaultyAgent(t, id, faults.Config{Seed: 5})
		fas[id] = fa
		agents[id] = fa.client(t, fast)
	}
	fas["c"].inj.Partition() // c is unreachable for the whole deploy

	r := NewRemote(agents, 1)
	_, _, err := r.Deploy(0, Want{Query: query.Q1(3), Width: 1 << 10, Sharded: true})
	if err == nil {
		t.Fatal("sharded deploy with a partitioned member succeeded")
	}
	var perr *PartialDeployError
	if !errors.As(err, &perr) {
		t.Fatalf("err = %T %v, want *PartialDeployError", err, err)
	}
	if perr.Mode != "shard" || perr.Failed != "c" {
		t.Errorf("PartialDeployError = mode %q failed %q, want shard/c", perr.Mode, perr.Failed)
	}
	if res := perr.Residual(); len(res) != 0 {
		t.Errorf("Residual = %v, want none (rollback must have succeeded)", res)
	}
	// Zero residual rules on the members that had installed: the switch
	// agents themselves account no live queries.
	for _, id := range []string{"a", "b"} {
		st, err := agents[id].Stats()
		if err != nil {
			t.Fatalf("stats %s: %v", id, err)
		}
		if st.Installed != 0 {
			t.Errorf("agent %s holds %d residual queries after rollback", id, st.Installed)
		}
	}

	// Healing the partition makes the identical deploy succeed in full.
	fas["c"].inj.Heal()
	if _, _, err := r.Deploy(0, Want{Query: query.Q1(3), Width: 1 << 10, Sharded: true}); err != nil {
		t.Fatalf("post-heal deploy: %v", err)
	}
	for id, c := range agents {
		st, err := c.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if st.Installed != 1 {
			t.Errorf("agent %s Installed = %d, want 1", id, st.Installed)
		}
	}
}

// TestShardDeploySurvivesInjectedResets: with seeded connection resets
// on every control channel, the retrying clients still land the deploy
// fully — the all-or-nothing contract's success arm.
func TestShardDeploySurvivesInjectedResets(t *testing.T) {
	retrying := rpc.Options{
		Timeout: 2 * time.Second, Retries: 16,
		BackoffBase: time.Millisecond, BackoffMax: 20 * time.Millisecond, Seed: 7,
	}
	agents := map[string]*rpc.Client{}
	for _, id := range []string{"a", "b", "c"} {
		fa := newFaultyAgent(t, id, faults.Config{Seed: int64(len(id)) + 40, ResetProb: 0.05})
		agents[id] = fa.client(t, retrying)
	}
	r := NewRemote(agents, 1)
	if _, _, err := r.Deploy(0, Want{Query: query.Q1(3), Width: 1 << 10, Sharded: true}); err != nil {
		t.Fatalf("deploy under resets: %v", err)
	}
	for id, c := range agents {
		st, err := c.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if st.Installed != 1 {
			t.Errorf("agent %s Installed = %d, want 1", id, st.Installed)
		}
	}
}

// TestCollectDeadlineOnStalledAgent (satellite): one hung agent cannot
// block Remote.Collect past the configured per-call deadline.
func TestCollectDeadlineOnStalledAgent(t *testing.T) {
	o := rpc.Options{Timeout: 100 * time.Millisecond, Seed: 3}
	healthy := newFaultyAgent(t, "a", faults.Config{Seed: 3})
	stalled := newFaultyAgent(t, "b", faults.Config{Seed: 3})
	agents := map[string]*rpc.Client{
		"a": healthy.client(t, o),
		"b": stalled.client(t, o),
	}
	r := NewRemote(agents, 1)
	if _, _, err := r.Install(query.Q1(3), 1<<10, nil); err != nil {
		t.Fatal(err)
	}
	stalled.inj.Stall()
	defer stalled.inj.Unstall()

	start := time.Now()
	_, err := r.Collect()
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("Collect with a hung agent succeeded")
	}
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Errorf("Collect err = %v, want deadline exceeded", err)
	}
	if elapsed > 3*time.Second {
		t.Errorf("Collect blocked %v despite 100ms deadline", elapsed)
	}
}

// TestReconvergeAfterAgentRestart: an agent that restarts (losing its
// installed queries) is re-driven to the recorded deploy spec by
// Reconverge, over the client's automatic redial.
func TestReconvergeAfterAgentRestart(t *testing.T) {
	fa := newFaultyAgent(t, "a", faults.Config{Seed: 9})
	c := fa.client(t, rpc.Options{
		Timeout: time.Second, Retries: 8,
		BackoffBase: time.Millisecond, BackoffMax: 20 * time.Millisecond, Seed: 9,
	})
	r := NewRemote(map[string]*rpc.Client{"a": c}, 1)
	if _, _, err := r.Install(query.Q1(3), 1<<10, nil); err != nil {
		t.Fatal(err)
	}

	// Restart: the old agent dies with its engine state; a fresh one
	// (empty engine) comes up at the same address.
	if err := fa.a.Close(); err != nil {
		t.Fatal(err)
	}
	layout, err := modules.NewLayout(modules.LayoutCompact, 16, 1<<14)
	if err != nil {
		t.Fatal(err)
	}
	eng2 := modules.NewEngine(layout)
	fa.sw.Monitor = eng2
	a2 := rpc.NewAgent(fa.sw, eng2)
	ln, err := net.Listen("tcp", fa.addr)
	if err != nil {
		t.Fatal(err)
	}
	go a2.Serve(ln)
	t.Cleanup(func() { a2.Close() })

	if err := r.Reconverge(); err != nil {
		t.Fatalf("Reconverge: %v", err)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Installed != 1 {
		t.Fatalf("restarted agent Installed = %d, want 1", st.Installed)
	}
	// Reconverge is level-triggered: running it against an already-
	// converged agent is a no-op, not an error.
	if err := r.Reconverge(); err != nil {
		t.Fatalf("second Reconverge: %v", err)
	}
	if st, _ := c.Stats(); st.Installed != 1 {
		t.Fatalf("idempotent reconverge changed state: %d installed", st.Installed)
	}
}
