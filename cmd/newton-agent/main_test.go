package main

import (
	"fmt"
	"net"
	"testing"
	"time"

	"github.com/newton-net/newton/internal/compiler"
	"github.com/newton-net/newton/internal/fields"
	"github.com/newton-net/newton/internal/netsim"
	"github.com/newton-net/newton/internal/query"
	"github.com/newton-net/newton/internal/telemetry"
	"github.com/newton-net/newton/internal/trace"
)

// waitFor polls cond for up to five seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestReplayEndsEveryWindow replays a trace spanning three windows twice
// through the agent's switch with an exporter attached, at one and two
// lanes: each loop ends three windows, every window's banks merge at the
// analyzer with no epoch gap, and the flood's alert arrives, all without
// a controller ticking.
func TestReplayEndsEveryWindow(t *testing.T) {
	const (
		victim  = 0x0A0000AA
		loops   = 2
		windows = 3 // a 250 ms trace in 100 ms windows
	)
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			sw, err := newReplaySwitch("sw1", netsim.Config{Stages: 16, ArraySize: 1 << 15,
				Window: 100 * time.Millisecond, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			svc := telemetry.NewService(telemetry.ServiceConfig{})
			defer svc.Close()
			server, client := net.Pipe()
			go svc.HandleConn(server)
			exp, err := telemetry.NewExporter(client, telemetry.ExporterConfig{SwitchID: "sw1", Policy: telemetry.PolicyBlock})
			if err != nil {
				t.Fatal(err)
			}
			defer exp.Close()
			exp.AttachAgent(sw.agent, sw.node.Eng)

			o := compiler.AllOpts()
			o.QID, o.Width = 1, 1<<12
			p, err := compiler.Compile(query.Q1(40), o)
			if err != nil {
				t.Fatal(err)
			}
			if err := sw.node.Eng.Install(p); err != nil {
				t.Fatal(err)
			}

			tr := trace.Generate(trace.Config{Seed: 3, Flows: 200, Duration: 250 * time.Millisecond},
				trace.SYNFlood{Victim: victim, Packets: 600})
			for l := 1; l <= loops; l++ {
				sw.replayLoop(tr.Packets)
				if got := sw.node.Layout.Epoch(); got != uint32(l*windows) {
					t.Fatalf("loop %d ended at epoch %d, want %d", l, got, l*windows)
				}
			}

			if err := exp.Flush(); err != nil {
				t.Fatal(err)
			}
			waitFor(t, "every window's snapshot", func() bool { return svc.Stats().Snapshots == loops*windows })
			waitFor(t, "every exported report", func() bool { return svc.Stats().Reports == exp.Stats().Exported })
			for e := uint32(0); e < loops*windows; e++ {
				if partial, missing, merged := svc.EpochStatus(p.QID, e); partial || merged != 1 {
					t.Errorf("epoch %d: partial=%v merged=%d missing=%v", e, partial, merged, missing)
				}
			}
			if gaps := svc.Stats().EpochGaps; gaps != 0 {
				t.Errorf("analyzer counts %d epoch gaps, want 0", gaps)
			}
			alerted := false
			for _, r := range svc.DrainReports() {
				alerted = alerted || r.QueryID == p.QID && r.Keys.Get(fields.DstIP) == victim
			}
			if !alerted {
				t.Error("the flood's alert never reached the analyzer")
			}
			if n := sw.node.DP.PendingReports(); n != 0 {
				t.Errorf("%d reports left on the switch", n)
			}
		})
	}
}
