package controller

import (
	"net"
	"testing"

	"github.com/newton-net/newton/internal/dataplane"
	"github.com/newton-net/newton/internal/fields"
	"github.com/newton-net/newton/internal/packet"
	"github.com/newton-net/newton/internal/query"
	"github.com/newton-net/newton/internal/telemetry"
)

func TestCollectPrefersTelemetryStream(t *testing.T) {
	r, sws := remoteFixture(t, 1)
	if _, _, err := r.Install(query.Q1(3), 1<<10, nil); err != nil {
		t.Fatal(err)
	}
	// Traffic leaves reports pending on the switch — the poll path's
	// source.
	for i := 0; i < 10; i++ {
		sws[0].Process(&packet.Packet{
			TS: uint64(i), IP: packet.IPv4{Proto: packet.ProtoTCP, Src: 9, Dst: 42},
			TCP: &packet.TCP{SrcPort: 1, DstPort: 80, Flags: packet.FlagSYN},
		})
	}

	// A telemetry service with one pushed report takes over Collect.
	svc := telemetry.NewService(telemetry.ServiceConfig{})
	defer svc.Close()
	server, client := net.Pipe()
	go svc.HandleConn(server)
	exp, err := telemetry.NewExporter(client, telemetry.ExporterConfig{SwitchID: "a"})
	if err != nil {
		t.Fatal(err)
	}
	defer exp.Close()
	var keys fields.Vector
	keys.Set(fields.DstIP, 77)
	exp.Export([]dataplane.Report{{
		SwitchID: "a", QueryID: 1, TS: 5, Keys: keys, KeyMask: fields.Keep(fields.DstIP),
	}})
	if err := exp.Flush(); err != nil {
		t.Fatal(err)
	}
	// The barrier: the service has accounted every frame the exporter wrote.
	n, _ := exp.Frames()
	if err := svc.AwaitFrames("a", n, false); err != nil {
		t.Fatal(err)
	}

	r.AttachTelemetry(svc)
	reports, err := r.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 1 || reports[0].Keys.Get(fields.DstIP) != 77 {
		t.Fatalf("Collect = %+v, want the pushed report", reports)
	}
	// The switch was never polled: its mirrored reports are still there.
	if sws[0].PendingReports() == 0 {
		t.Error("push-mode Collect drained the switch over the control channel")
	}
}

func TestInstallShardedRollsBackAndRemoves(t *testing.T) {
	r, _ := remoteFixture(t, 3)
	// A ghost agent mid-list unwinds the partial sharded install.
	if _, _, err := r.Deploy(0, Want{Query: query.Q1(3), Width: 1 << 10, Targets: []string{"a", "ghost", "c"}, Sharded: true}); err == nil {
		t.Fatal("sharded install to a ghost agent succeeded")
	}
	// The same QID is free again: a full sharded install succeeds and is
	// removable everywhere.
	qid, delay, err := r.Deploy(0, Want{Query: query.Q1(3), Width: 1 << 10, Sharded: true})
	if err != nil {
		t.Fatalf("rollback left residue: %v", err)
	}
	if delay <= 0 {
		t.Error("no modeled delay")
	}
	if err := r.Remove(qid); err != nil {
		t.Fatal(err)
	}
}
