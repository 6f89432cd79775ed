package fleet

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/newton-net/newton/internal/controller"
	"github.com/newton-net/newton/internal/dataplane"
	"github.com/newton-net/newton/internal/netsim"
	"github.com/newton-net/newton/internal/query"
	"github.com/newton-net/newton/internal/rpc"
	"github.com/newton-net/newton/internal/telemetry"
	"github.com/newton-net/newton/internal/topology"
	"github.com/newton-net/newton/internal/trace"
)

// eachTransport runs fn once per transport.
func eachTransport(t *testing.T, fn func(t *testing.T, tcp bool)) {
	t.Run("pipe", func(t *testing.T) { fn(t, false) })
	t.Run("tcp", func(t *testing.T) { fn(t, true) })
}

// line3 is a 3-switch line with push telemetry and a key-sharded Q1
// deployed through the fleet's controller.
func line3(t *testing.T, tcp bool) (f *Fleet, h1, h2, qid int) {
	t.Helper()
	topo, h1, h2 := topology.Linear(3)
	f, err := New(topo, Config{
		TCP: tcp, Exporter: &telemetry.ExporterConfig{},
		// One retry: a client learns its switch rebooted by failing a call.
		RPC: rpc.Options{Retries: 1, BackoffBase: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	qid, _, err = f.Ctl.Deploy(0, controller.Want{Query: query.Q1(40), Width: 1 << 10, Targets: f.Names, Sharded: true})
	if err != nil {
		f.Close()
		t.Fatal(err)
	}
	return f, h1, h2, qid
}

// eventually polls cond for up to five seconds.
func eventually(cond func() bool) bool {
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		if cond() {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
	}
}

// alerted reports whether a report of qid reached the controller's
// Collect once the analyzer accounted every frame.
func alerted(t *testing.T, f *Fleet, qid int) bool {
	t.Helper()
	if err := f.Accounted(); err != nil {
		t.Fatal(err)
	}
	rs, err := f.Ctl.Collect()
	if err != nil {
		t.Fatal(err)
	}
	return slices.ContainsFunc(rs, func(r dataplane.Report) bool { return r.QueryID == qid })
}

// fullEpoch checks that every shard's banks of qid's epoch merged once
// the analyzer accounted every frame.
func fullEpoch(t *testing.T, f *Fleet, qid int, epoch uint32) {
	t.Helper()
	if err := f.Accounted(); err != nil {
		t.Fatal(err)
	}
	if partial, missing, merged := f.Svc.EpochStatus(qid, epoch); partial || merged != len(f.Names) {
		t.Fatalf("epoch %d: merged %d of %d shards, missing %v", epoch, merged, len(f.Names), missing)
	}
}

// TestFleetAlertAndFullEpoch drives the whole stack once: packets
// through the netsim, the controller's tick ending the window, the
// flagged key through an exporter, the service's dedup and the
// controller's Collect, and the epoch's banks from every shard into a
// merged epoch nobody is missing from.
func TestFleetAlertAndFullEpoch(t *testing.T) {
	eachTransport(t, func(t *testing.T, tcp bool) {
		f, h1, h2, qid := line3(t, tcp)
		defer f.Close()

		const victim = 0x0A0000AA
		// Shorter than netsim's window: Ctl.Tick ends the only window.
		flood := trace.Generate(trace.Config{Seed: 7, Flows: 50, Duration: 50 * time.Millisecond},
			trace.SYNFlood{Victim: victim, Packets: 200})
		for _, pkt := range flood.Packets {
			f.Net.Deliver(pkt, h1, h2)
		}
		epoch := f.Switches["s1"].Node.Layout.Epoch()
		if err := f.Ctl.Tick(); err != nil {
			t.Fatal(err)
		}
		if !alerted(t, f, qid) {
			t.Fatal("no alert for the SYN flood reached the controller through the service")
		}
		fullEpoch(t, f, qid, epoch)
	})
}

// TestFleetWindowEnd: the netsim clock and the controller's tick end a
// switch's window the same way. A trace that crosses three netsim
// window boundaries, then one tick, advances every switch by four
// epochs; each of the four merges from every shard with no epoch gap,
// and the flood's alert reaches Collect without anyone pushing reports.
func TestFleetWindowEnd(t *testing.T) {
	eachTransport(t, func(t *testing.T, tcp bool) {
		f, h1, h2, qid := line3(t, tcp)
		defer f.Close()

		start := map[string]uint32{}
		for _, name := range f.Names {
			start[name] = f.Switches[name].Node.Layout.Epoch()
		}
		flood := trace.Generate(trace.Config{Seed: 7, Flows: 50, Duration: 350 * time.Millisecond},
			trace.SYNFlood{Victim: 0x0A0000AA, Packets: 800})
		for _, pkt := range flood.Packets {
			f.Net.Deliver(pkt, h1, h2)
		}
		if err := f.Ctl.Tick(); err != nil {
			t.Fatal(err)
		}
		for _, name := range f.Names {
			if got := f.Switches[name].Node.Layout.Epoch(); got != start[name]+4 {
				t.Errorf("%s: epoch %d after three netsim windows and a tick, want %d", name, got, start[name]+4)
			}
		}
		if !alerted(t, f, qid) {
			t.Fatal("no alert for the SYN flood reached the controller through the service")
		}
		for e := start["s1"]; e < start["s1"]+4; e++ {
			fullEpoch(t, f, qid, e)
		}
		if gaps := f.Svc.Stats().EpochGaps; gaps != 0 {
			t.Errorf("analyzer counts %d epoch gaps, want 0", gaps)
		}
	})
}

// TestFleetKillRestart: a killed switch fails the controller's tick by
// name, and a restarted one comes back empty at the same address, where
// Reconverge re-installs its shard.
func TestFleetKillRestart(t *testing.T) {
	eachTransport(t, func(t *testing.T, tcp bool) {
		f, _, _, _ := line3(t, tcp)
		defer f.Close()

		old := f.Switches["s2"].Node.Eng
		if err := f.Kill("s2"); err != nil {
			t.Fatal(err)
		}
		err := f.Ctl.Tick()
		if err == nil || !strings.Contains(err.Error(), `"s2"`) {
			t.Fatalf("Tick with s2 killed = %v, want s2's error", err)
		}
		if strings.Contains(err.Error(), `"s1"`) || strings.Contains(err.Error(), `"s3"`) {
			t.Fatalf("Tick with s2 killed blames a live switch: %v", err)
		}

		if err := f.Restart("s2"); err != nil {
			t.Fatal(err)
		}
		eng := f.Switches["s2"].Node.Eng
		if eng == old || eng.InstalledCount() != 0 {
			t.Fatalf("restarted s2: same engine %v, %d queries installed; want a new empty one", eng == old, eng.InstalledCount())
		}
		if err := f.Ctl.Reconverge(); err != nil {
			t.Fatal(err)
		}
		if got := f.Switches["s2"].Node.Eng.InstalledCount(); got != 1 {
			t.Fatalf("s2 holds %d queries after Reconverge, want 1", got)
		}
		if err := f.Ctl.Tick(); err != nil {
			t.Fatalf("Tick after restart: %v", err)
		}
		if err := f.Kill("s9"); err == nil {
			t.Fatal("Kill of an unknown switch returned no error")
		}
	})
}

// TestFleetForgetRestart: a killed switch, once its stream has ended,
// can be forgotten, and the barrier then expects of it only what its
// restarted exporter writes: the analyzer counts that switch's frames
// from zero again, and Accounted holds at every step.
func TestFleetForgetRestart(t *testing.T) {
	eachTransport(t, func(t *testing.T, tcp bool) {
		f, _, _, _ := line3(t, tcp)
		defer f.Close()

		if err := f.Ctl.Tick(); err != nil {
			t.Fatal(err)
		}
		if err := f.Kill("s2"); err != nil {
			t.Fatal(err)
		}
		if err := f.Accounted(); err != nil {
			t.Fatal(err)
		}
		f.Forget("s2")
		if _, ok := f.Svc.AgentWire("s2"); ok {
			t.Fatal("s2 is still tracked after Forget")
		}
		if err := f.Accounted(); err != nil {
			t.Fatalf("Accounted with s2 forgotten: %v", err)
		}

		if err := f.Restart("s2"); err != nil {
			t.Fatal(err)
		}
		if err := f.Ctl.Reconverge(); err != nil {
			t.Fatal(err)
		}
		if err := f.Ctl.Tick(); err != nil {
			t.Fatal(err)
		}
		if err := f.Accounted(); err != nil {
			t.Fatalf("Accounted after s2 restarted: %v", err)
		}
		wrote, _ := f.Switches["s2"].Exporter.Frames()
		if wi, _ := f.Svc.AgentWire("s2"); wrote == 0 || wi.Frames != wrote {
			t.Fatalf("s2's restarted exporter wrote %d frames, the analyzer counts %d", wrote, wi.Frames)
		}
	})
}

// TestFleetCloseLeavesNoGoroutines: Close stops everything New and a
// restart started.
func TestFleetCloseLeavesNoGoroutines(t *testing.T) {
	eachTransport(t, func(t *testing.T, tcp bool) {
		before := runtime.NumGoroutine()
		f, _, _, _ := line3(t, tcp)
		if err := f.Restart("s3"); err != nil {
			t.Fatal(err)
		}
		if err := f.Ctl.Reconverge(); err != nil {
			t.Fatal(err)
		}
		f.Close()
		f.Close() // idempotent
		// Close waits for every goroutine the fleet started; one that has
		// called Done may not have exited yet.
		if !eventually(func() bool { return runtime.NumGoroutine() <= before }) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines before New, %d after Close:\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
	})
}

// TestFleetBatchReportsReachCollect: a batch's reports stay on the
// switches that mirrored them, so a polling controller's Collect after
// DeliverBatch on two lanes returns every report that the same trace
// gives through Deliver, packet by packet.
func TestFleetBatchReportsReachCollect(t *testing.T) {
	collect := func(batch bool) []string {
		topo, h1, h2 := topology.Linear(3)
		f, err := New(topo, Config{Net: netsim.Config{Workers: 2}})
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if _, _, err := f.Ctl.Deploy(0, controller.Want{Query: query.Q1(40), Width: 1 << 10, Targets: f.Names, Sharded: true}); err != nil {
			t.Fatal(err)
		}
		flood := trace.Generate(trace.Config{Seed: 7, Flows: 50, Duration: 50 * time.Millisecond},
			trace.SYNFlood{Victim: 0x0A0000AA, Packets: 200},
			trace.SYNFlood{Victim: 0x0A0000AB, Packets: 200},
			trace.SYNFlood{Victim: 0x0A0000AC, Packets: 200})
		if batch {
			f.Net.DeliverBatch(flood.Packets, h1, h2)
		} else {
			for _, pkt := range flood.Packets {
				f.Net.Deliver(pkt, h1, h2)
			}
		}
		rs, err := f.Ctl.Collect()
		if err != nil {
			t.Fatal(err)
		}
		// Which packet crosses the threshold, and so the report's TS,
		// depends on how the lanes interleave; what was counted does not.
		out := make([]string, len(rs))
		for i, r := range rs {
			r.TS = 0
			out[i] = fmt.Sprintf("%+v", r)
		}
		slices.Sort(out)
		return out
	}
	want := collect(false)
	if len(want) == 0 {
		t.Fatal("Deliver gave no reports: the trace does not exercise the drain")
	}
	if got := collect(true); !slices.Equal(got, want) {
		t.Fatalf("DeliverBatch + Collect returned %d reports, Deliver + Collect %d:\n%v\nwant\n%v", len(got), len(want), got, want)
	}
}
