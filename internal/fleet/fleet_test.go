package fleet

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/newton-net/newton/internal/controller"
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

// TestFleetAlertAndFullEpoch drives the whole stack once: packets
// through the netsim, the flagged key through an exporter, the service's
// dedup and the controller's Collect, and one epoch's banks from every
// shard into a merged epoch nobody is missing from.
func TestFleetAlertAndFullEpoch(t *testing.T) {
	eachTransport(t, func(t *testing.T, tcp bool) {
		f, h1, h2, qid := line3(t, tcp)
		defer f.Close()

		const victim = 0x0A0000AA
		// Shorter than netsim's window: only Ctl.Tick rolls the epoch.
		flood := trace.Generate(trace.Config{Seed: 7, Flows: 50, Duration: 50 * time.Millisecond},
			trace.SYNFlood{Victim: victim, Packets: 200})
		for _, pkt := range flood.Packets {
			f.Net.Deliver(pkt, h1, h2)
		}
		for _, name := range f.Names {
			f.Switches[name].Exporter.Export(f.Switches[name].Node.DP.DrainReports())
		}
		alerted := eventually(func() bool {
			rs, err := f.Ctl.Collect()
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range rs {
				if r.QueryID == qid {
					return true
				}
			}
			return false
		})
		if !alerted {
			t.Fatal("no alert for the SYN flood reached the controller through the service")
		}

		epoch := f.Switches["s1"].Node.Layout.Epoch()
		if err := f.Ctl.Tick(); err != nil {
			t.Fatal(err)
		}
		var missing []string
		var merged int
		full := eventually(func() bool {
			var partial bool
			partial, missing, merged = f.Svc.EpochStatus(qid, epoch)
			return !partial && merged == len(f.Names)
		})
		if !full {
			t.Fatalf("epoch %d: merged %d of %d shards, missing %v", epoch, merged, len(f.Names), missing)
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
		if !eventually(func() bool { return runtime.NumGoroutine() <= before }) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines before New, %d after Close:\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
	})
}
