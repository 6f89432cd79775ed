package telemetry_test

import (
	"net"
	"runtime"
	"testing"
	"time"

	"github.com/newton-net/newton/internal/compiler"
	"github.com/newton-net/newton/internal/dataplane"
	"github.com/newton-net/newton/internal/modules"
	"github.com/newton-net/newton/internal/query"
	"github.com/newton-net/newton/internal/telemetry"
	"github.com/newton-net/newton/internal/trace"
)

// TestEpochPathSteadyStateGarbage drives the whole epoch path — capture,
// delta-encode, flate, TCP, inflate, decode, merge, retire the oldest
// merged epoch — for one switch with the benchmark's epoch-storm query
// set (q1, q3, q4, q6 at width 16384: 18 rows, 1.18 MB of raw bank
// values an epoch) and, once every buffer along the way exists, holds
// an epoch to under a tenth of that in new allocation.
//
// Measured on this test: 2.7 KB in 28 objects an epoch. The path that
// made a fresh slice per bank at each of snapshot, encoder base,
// decoder and merge, and a flate writer per frame (commit 88557e6):
// 7.2 MB in 247 objects.
func TestEpochPathSteadyStateGarbage(t *testing.T) {
	const (
		width      = 1 << 14
		keepEpochs = 4
		rows       = 18
		rawBytes   = rows * width * 4
	)
	svc := telemetry.NewService(telemetry.ServiceConfig{Window: 100 * time.Millisecond, KeepEpochs: keepEpochs})
	defer svc.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go svc.Serve(ln)
	events, cancel := svc.Subscribe(16)
	defer cancel()

	layout, err := modules.NewLayout(modules.LayoutCompact, 16, 1<<17)
	if err != nil {
		t.Fatal(err)
	}
	eng := modules.NewEngine(layout)
	for i, q := range []*query.Query{query.Q1(2), query.Q3(2), query.Q4(2), query.Q6(1)} {
		o := compiler.AllOpts()
		o.QID, o.Width = i+1, width
		p, err := compiler.Compile(q, o)
		if err != nil {
			t.Fatalf("Compile %s: %v", q.Name, err)
		}
		if err := eng.Install(p); err != nil {
			t.Fatalf("Install %s: %v", q.Name, err)
		}
	}
	if n := len(eng.SnapshotBanks()); n != rows {
		t.Fatalf("the query set has %d rows, the test's arithmetic assumes %d", n, rows)
	}
	sw := dataplane.NewSwitch("s1", 16, modules.StageCapacity())
	sw.AddRoute(0, 0, 1)
	sw.Monitor = eng
	pkts := trace.Generate(trace.Config{Seed: 5, Flows: 12, Duration: 20 * time.Millisecond}).Packets

	exp, err := telemetry.Dial(ln.Addr().String(), telemetry.ExporterConfig{
		SwitchID: "s1", Policy: telemetry.PolicyBlock, Codec: telemetry.CodecBinary})
	if err != nil {
		t.Fatal(err)
	}
	defer exp.Close()

	// epoch is one window: traffic, export, roll, and the wait for the
	// analyzer to have merged it (settle).
	epoch := func() {
		for _, p := range pkts {
			sw.Process(p)
		}
		sw.DrainReports() // the report path is not this test's subject
		ending := layout.Epoch()
		if err := exp.ExportEpoch(eng); err != nil {
			t.Fatal(err)
		}
		eng.RollEpoch()
		for ev := range events {
			if ev.Kind == telemetry.EventSnapshotMerged && ev.Epoch == ending {
				return
			}
		}
		t.Fatal("subscription closed before the epoch merged")
	}
	for i := 0; i < keepEpochs+2; i++ {
		epoch()
	}
	const measured = 16 // two keyframes among them
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < measured; i++ {
		epoch()
	}
	runtime.ReadMemStats(&m1)
	bytesPer := (m1.TotalAlloc - m0.TotalAlloc) / measured
	objsPer := (m1.Mallocs - m0.Mallocs) / measured
	t.Logf("steady epoch: %d B, %d objects allocated (raw bank values: %d B)", bytesPer, objsPer, rawBytes)
	if st := exp.Stats(); st.DeltaBanks == 0 || st.CompressedFrames == 0 {
		t.Errorf("the epochs did not exercise delta encoding and compression: %+v", st)
	}
	if raceEnabled {
		return // pooled flate writers are dropped at random under -race
	}
	if bytesPer > rawBytes/10 {
		t.Errorf("a steady epoch allocates %d B, over a tenth of its %d B of bank values", bytesPer, rawBytes)
	}
	if objsPer > 100 {
		t.Errorf("a steady epoch allocates %d objects; the per-bank-slice path made 247", objsPer)
	}
}

// TestMergedRowsOutliveTheirEpoch: the analyzer builds each new merged
// epoch of a bank in the memory of the one it evicts, so what MergedRows
// hands out must be the caller's own copy — a result held across the
// eviction keeps its values — and a recycled bank must start from zero,
// not from the evicted epoch's counts. A snapshot older than everything
// a full bank retains is dropped, as it was when it was merged and
// evicted in one step.
func TestMergedRowsOutliveTheirEpoch(t *testing.T) {
	svc := telemetry.NewService(telemetry.ServiceConfig{KeepEpochs: 2})
	defer svc.Close()
	exp := connect(t, svc, "sw1", telemetry.ExporterConfig{}, nil)
	defer exp.Close()
	send := func(epoch uint32, vals ...uint32) {
		t.Helper()
		before := svc.Stats().Snapshots
		if err := exp.ExportSnapshot(epoch, []modules.BankSnapshot{cmsBank(1, vals...)}); err != nil {
			t.Fatal(err)
		}
		waitFor(t, "snapshot merged", func() bool { return svc.Stats().Snapshots == before+1 })
	}
	send(5, 10, 20, 30)
	send(6, 1, 1, 1)
	held := svc.MergedRows(1, 0, 5)
	if len(held) != 1 || held[0].Values[1] != 20 {
		t.Fatalf("epoch 5 before eviction: %+v", held)
	}

	send(7, 0, 7, 0) // evicts epoch 5 and merges into its memory
	if rows := svc.MergedRows(1, 0, 5); len(rows) != 0 {
		t.Fatalf("epoch 5 still retained past KeepEpochs: %d rows", len(rows))
	}
	if v := held[0].Values; v[0] != 10 || v[1] != 20 || v[2] != 30 {
		t.Errorf("a held MergedRows result changed under the caller: %v", v)
	}
	rows := svc.MergedRows(1, 0, 7)
	if len(rows) != 1 {
		t.Fatalf("epoch 7: %d rows", len(rows))
	}
	if v := rows[0].Values; v[0] != 0 || v[1] != 7 || v[2] != 0 {
		t.Errorf("epoch 7 merged into a bank that was not cleared: %v", v)
	}
	if sw := rows[0].Switches; len(sw) != 1 || sw[0] != "sw1" {
		t.Errorf("epoch 7 provenance: %v", sw)
	}

	send(4, 9, 9, 9) // a straggler older than both retained epochs
	if rows := svc.MergedRows(1, 0, 4); len(rows) != 0 {
		t.Errorf("a straggler displaced a newer epoch: %d rows at epoch 4", len(rows))
	}
	if len(svc.MergedRows(1, 0, 6)) != 1 || len(svc.MergedRows(1, 0, 7)) != 1 {
		t.Error("the straggler evicted a retained epoch")
	}
}
