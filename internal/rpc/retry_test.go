package rpc

import (
	"errors"
	"net"
	"os"
	"testing"
	"time"

	"github.com/newton-net/newton/internal/faults"
	"github.com/newton-net/newton/internal/packet"
	"github.com/newton-net/newton/internal/wire"
)

// agentOverTCP serves one agent on a loopback listener (optionally
// fault-wrapped) and returns its address.
func agentOverTCP(t *testing.T, a *Agent, inj *faults.Injector) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	wrapped := net.Listener(ln)
	if inj != nil {
		wrapped = inj.Listener(ln)
	}
	go a.Serve(wrapped)
	t.Cleanup(func() { a.Close() })
	return ln.Addr().String()
}

func TestClientRetriesThroughInjectedResets(t *testing.T) {
	agent, _ := testAgent(t)
	// ResetProb gates every low-level read and write, so a round trip
	// crosses several chances to die; keep the per-op rate modest and
	// the retry budget generous.
	inj := faults.New(faults.Config{Seed: 11, ResetProb: 0.08})
	addr := agentOverTCP(t, agent, inj)

	c, err := DialOptions(addr, Options{
		Timeout: 2 * time.Second, Retries: 16,
		BackoffBase: time.Millisecond, BackoffMax: 20 * time.Millisecond, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.Install(compileQ1(t, 1)); err != nil {
		t.Fatalf("Install under resets: %v", err)
	}
	for i := 0; i < 20; i++ {
		st, err := c.Stats()
		if err != nil {
			t.Fatalf("Stats %d under resets: %v", i, err)
		}
		if st.Installed != 1 {
			t.Fatalf("Stats %d = %+v, want 1 installed", i, st)
		}
	}
	if inj.Stats().Resets == 0 {
		t.Skip("seed produced no resets; nothing exercised")
	}
	if c.Counters().Redials == 0 {
		t.Error("resets occurred but the client never redialed")
	}
}

func TestRetriedInstallIsExactlyOnce(t *testing.T) {
	// An install whose response is lost must not fail its retry with
	// "already installed": the replay cache answers the retransmit.
	agent, _ := testAgent(t)
	inj := faults.New(faults.Config{Seed: 3}) // manual partition control
	addr := agentOverTCP(t, agent, inj)

	c, err := DialOptions(addr, Options{
		Timeout: 200 * time.Millisecond, Retries: 10,
		BackoffBase: time.Millisecond, BackoffMax: 10 * time.Millisecond, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Stall after the request lands: the agent executes the install but
	// the response never reaches the client before its deadline.
	if err := c.Install(compileQ1(t, 1)); err != nil {
		t.Fatal(err)
	}
	inj.Stall()
	done := make(chan error, 1)
	go func() { done <- c.Install(compileQ1(t, 2)) }()
	time.Sleep(50 * time.Millisecond) // let the first attempt time out at least once
	inj.Unstall()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("retried install: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("install never completed")
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Installed != 2 {
		t.Errorf("Installed = %d, want 2", st.Installed)
	}
}

func TestCallTimeoutOnStalledAgent(t *testing.T) {
	agent, _ := testAgent(t)
	inj := faults.New(faults.Config{Seed: 9})
	addr := agentOverTCP(t, agent, inj)

	c, err := DialOptions(addr, Options{Timeout: 100 * time.Millisecond, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	inj.Stall()
	defer inj.Unstall()

	start := time.Now()
	_, err = c.Stats()
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("Stats on a stalled agent succeeded")
	}
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Errorf("err = %v, want deadline exceeded", err)
	}
	if elapsed > 3*time.Second {
		t.Errorf("stalled call blocked %v, want ~100ms", elapsed)
	}
}

func TestCloseDuringInFlightIsTyped(t *testing.T) {
	agent, _ := testAgent(t)
	inj := faults.New(faults.Config{Seed: 13})
	addr := agentOverTCP(t, agent, inj)

	c, err := DialOptions(addr, Options{Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	inj.Stall() // the call hangs with no deadline configured
	defer inj.Unstall()

	errCh := make(chan error, 1)
	go func() {
		_, err := c.Stats()
		errCh <- err
	}()
	time.Sleep(30 * time.Millisecond)
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	select {
	case err := <-errCh:
		if !errors.Is(err, ErrClientClosed) {
			t.Errorf("in-flight err = %v, want ErrClientClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight call never returned after Close")
	}
	// Subsequent calls fail fast, without touching the dead conn.
	start := time.Now()
	if _, err := c.Stats(); !errors.Is(err, ErrClientClosed) {
		t.Errorf("post-Close err = %v, want ErrClientClosed", err)
	}
	if time.Since(start) > time.Second {
		t.Error("post-Close call did not fail fast")
	}
}

func TestDrainCursorNeverDoubleDelivers(t *testing.T) {
	agent, sw := testAgent(t)
	server, client := net.Pipe()
	go agent.HandleConn(server)
	defer client.Close()

	install := wire.AppendProgram(nil, compileQ1(t, 1))
	if resp := exchange(t, client, wire.Request{Call: wire.CallInstall, Program: install, ID: 100}); !resp.OK {
		t.Fatalf("install: %+v", resp)
	}
	for i := 0; i < 10; i++ {
		sw.Process(&packet.Packet{
			TS: uint64(i), IP: packet.IPv4{Proto: packet.ProtoTCP, Src: 9, Dst: 42},
			TCP: &packet.TCP{SrcPort: 1, DstPort: 80, Flags: packet.FlagSYN},
		})
	}

	drain := func(id, ack uint64) wire.Response {
		t.Helper()
		return exchange(t, client, wire.Request{Call: wire.CallDrain, ID: id, DrainAck: ack})
	}

	// Fresh drain takes the pending report.
	r1 := drain(101, 0)
	if len(r1.Reports) != 1 || r1.Cursor != 1 {
		t.Fatalf("first drain = %d reports, cursor %d", len(r1.Reports), r1.Cursor)
	}
	// A retry that never saw r1 (distinct ID defeats the replay cache;
	// the ack still trails) re-delivers the same batch.
	r2 := drain(102, 0)
	if len(r2.Reports) != 1 || r2.Cursor != 1 {
		t.Fatalf("redelivery = %d reports, cursor %d", len(r2.Reports), r2.Cursor)
	}
	if r1.Reports[0].TS != r2.Reports[0].TS {
		t.Error("redelivered batch differs from the original")
	}
	// Acknowledging the cursor moves on: the batch is consumed exactly
	// once, and the next drain is empty.
	r3 := drain(103, 1)
	if len(r3.Reports) != 0 || r3.Cursor != 2 {
		t.Fatalf("post-ack drain = %d reports, cursor %d", len(r3.Reports), r3.Cursor)
	}
}

func TestClientDrainRetryAcrossReconnect(t *testing.T) {
	// End-to-end: reports drained while the transport is flaky arrive
	// exactly once at the client.
	agent, sw := testAgent(t)
	inj := faults.New(faults.Config{Seed: 21, ResetProb: 0.08})
	addr := agentOverTCP(t, agent, inj)

	c, err := DialOptions(addr, Options{
		Timeout: time.Second, Retries: 16,
		BackoffBase: time.Millisecond, BackoffMax: 10 * time.Millisecond, Seed: 21,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Install(compileQ1(t, 1)); err != nil {
		t.Fatal(err)
	}

	total := 0
	for round := 0; round < 8; round++ {
		sw.Process(&packet.Packet{
			TS: uint64(round), IP: packet.IPv4{Proto: packet.ProtoTCP, Src: 9, Dst: uint32(100 + round)},
			TCP: &packet.TCP{SrcPort: 1, DstPort: 80, Flags: packet.FlagSYN},
		})
		// Each round crosses the threshold for a fresh key after enough
		// SYNs; drive 10 packets to guarantee one report.
		for i := 0; i < 9; i++ {
			sw.Process(&packet.Packet{
				TS: uint64(round), IP: packet.IPv4{Proto: packet.ProtoTCP, Src: 9, Dst: uint32(100 + round)},
				TCP: &packet.TCP{SrcPort: 1, DstPort: 80, Flags: packet.FlagSYN},
			})
		}
		rs, err := c.DrainReports()
		if err != nil {
			t.Fatalf("drain round %d: %v", round, err)
		}
		total += len(rs)
	}
	if rs, err := c.DrainReports(); err == nil {
		total += len(rs)
	}
	if total != 8 {
		t.Errorf("delivered %d reports across flaky drains, want exactly 8", total)
	}
}
