package telemetry_test

import (
	"net"
	"reflect"
	"runtime"
	"testing"
	"time"

	"github.com/newton-net/newton/internal/compiler"
	"github.com/newton-net/newton/internal/dataplane"
	"github.com/newton-net/newton/internal/fields"
	"github.com/newton-net/newton/internal/modules"
	"github.com/newton-net/newton/internal/query"
	"github.com/newton-net/newton/internal/telemetry"
	"github.com/newton-net/newton/internal/trace"
)

// The benchmark's epoch-storm query set — q1, q3, q4, q6 at width 16384 —
// is 18 rows: 1.18 MB of raw bank values an epoch.
const (
	stormWidth    = 1 << 14
	stormRows     = 18
	stormRawBytes = stormRows * stormWidth * 4
)

// stormSwitch is one switch of that workload under light traffic (12
// flows), exporting to svc over TCP with the binary codec. Its epoch
// func is one window: traffic, export, roll, and the wait for the
// analyzer to have merged it.
func stormSwitch(t *testing.T, svc *telemetry.Service) (exp *telemetry.Exporter, epoch func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go svc.Serve(ln)
	events, cancel := svc.Subscribe(16)
	t.Cleanup(cancel)

	layout, err := modules.NewLayout(modules.LayoutCompact, 16, 1<<17)
	if err != nil {
		t.Fatal(err)
	}
	eng := modules.NewEngine(layout)
	for i, q := range []*query.Query{query.Q1(2), query.Q3(2), query.Q4(2), query.Q6(1)} {
		o := compiler.AllOpts()
		o.QID, o.Width = i+1, stormWidth
		p, err := compiler.Compile(q, o)
		if err != nil {
			t.Fatalf("Compile %s: %v", q.Name, err)
		}
		if err := eng.Install(p); err != nil {
			t.Fatalf("Install %s: %v", q.Name, err)
		}
	}
	if n := len(eng.SnapshotBanks()); n != stormRows {
		t.Fatalf("the query set has %d rows, the test's arithmetic assumes %d", n, stormRows)
	}
	sw := dataplane.NewSwitch("s1", 16, modules.StageCapacity())
	sw.AddRoute(0, 0, 1)
	sw.Monitor = eng
	pkts := trace.Generate(trace.Config{Seed: 5, Flows: 12, Duration: 20 * time.Millisecond}).Packets

	exp, err = telemetry.Dial(ln.Addr().String(), telemetry.ExporterConfig{
		SwitchID: "s1", Policy: telemetry.PolicyBlock})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { exp.Close() })

	return exp, func() {
		for _, p := range pkts {
			sw.Process(p)
		}
		sw.DrainReports() // the report path is not these tests' subject
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
}

// TestEpochPathSteadyStateGarbage drives the whole epoch path — capture,
// pack and delta-encode, flate, TCP, inflate, decode, merge the cells,
// retire the oldest merged epoch — for one epoch-storm switch and, once
// every buffer along the way exists (the capture, each codec end's two
// cell sets per bank, the merged epochs), holds an epoch to under a
// tenth of its raw bank values in new allocation.
//
// Measured on this test: 1.3 KB in 8 objects an epoch — or 78 KB in 9,
// one run in six, when a collection inside the window empties the pool
// the flate writer waits in and the next frame builds another (1.2 MB
// over the 16 epochs), which is what the bound leaves room for. With a
// contributor map per (query, epoch) (commit a86ebfe): 2.3 KB in 16. With
// dense codec bases and a per-snapshot contributor set (commit 4081355):
// 2.7 KB in 28. The path that made a fresh slice per bank at each of
// snapshot, encoder base, decoder and merge, and a flate writer per frame
// (commit 88557e6): 7.2 MB in 247.
func TestEpochPathSteadyStateGarbage(t *testing.T) {
	const keepEpochs = 4
	svc := telemetry.NewService(telemetry.ServiceConfig{Window: 100 * time.Millisecond, KeepEpochs: keepEpochs})
	defer svc.Close()
	exp, epoch := stormSwitch(t, svc)
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
	t.Logf("steady epoch: %d B, %d objects allocated (raw bank values: %d B)", bytesPer, objsPer, stormRawBytes)
	if st := exp.Stats(); st.DeltaBanks == 0 || st.CompressedFrames == 0 {
		t.Errorf("the epochs did not exercise delta encoding and compression: %+v", st)
	}
	if raceEnabled {
		return // pooled flate writers are dropped at random under -race
	}
	if bytesPer > stormRawBytes/10 {
		t.Errorf("a steady epoch allocates %d B, over a tenth of its %d B of bank values", bytesPer, stormRawBytes)
	}
	if objsPer > 50 {
		t.Errorf("a steady epoch allocates %d objects; the per-bank-slice path made 247", objsPer)
	}
}

// TestReadsDoNotAllocate: what the refiner and an operator's point
// queries ask of a settled epoch costs the query's own rows and no
// garbage — the benchmark polls LatestSettledEpoch while it waits for an
// epoch to settle, inside allocs_per_epoch. 16 retained epochs of four
// queries, four rows of 1024 each, three Count-Min and one Bloom; before
// queryState, LatestSettledEpoch made 5 objects a call and Estimate 4.
// ObservedAccuracy may keep its one: the fills of the worst Bloom group
// it hands back (none for a Count-Min query).
func TestReadsDoNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector perturbs allocation counts")
	}
	const epochs, width = 16, 1024
	svc := telemetry.NewService(telemetry.ServiceConfig{KeepEpochs: epochs})
	defer svc.Close()
	exp := connect(t, svc, "s1", telemetry.ExporterConfig{}, nil)
	defer exp.Close()
	var banks []modules.BankSnapshot
	for qid := 1; qid <= 4; qid++ {
		for row := 0; row < 4; row++ {
			b := cmsBank(qid, make([]uint32, width)...)
			b.Row, b.Seed, b.KeyMask = row, uint32(row), fields.Keep(fields.DstIP)
			for i := 0; i < width; i += 7 {
				b.Values[i] = 1
			}
			if qid == 4 { // a Bloom row: the same registers, as bits
				b.Kind, b.Bits = modules.BankBloomRow, make([]uint64, width/64)
				for i, v := range b.Values {
					b.Bits[i/64] |= uint64(v) << (i % 64)
				}
				b.Values = nil
			}
			banks = append(banks, b)
		}
	}
	for e := uint32(1); e <= epochs+2; e++ {
		if err := exp.ExportSnapshot(e, banks); err != nil {
			t.Fatal(err)
		}
	}
	const last = epochs + 2
	waitFor(t, "every epoch merged", func() bool { return svc.Stats().Snapshots == last })

	var keys fields.Vector
	keys.Set(fields.DstIP, 0x0a000001)
	reads := []struct {
		name string
		max  float64
		call func() bool
	}{
		{"LatestSettledEpoch", 0, func() bool { e, ok := svc.LatestSettledEpoch(1); return ok && e == last }},
		{"Estimate", 0, func() bool { _, ok := svc.Estimate(1, 0, last, &keys); return ok }},
		{"SeenDistinct", 0, func() bool { _, ok := svc.SeenDistinct(4, 0, last, &keys); return ok }},
		{"EpochStatus", 0, func() bool { partial, _, merged := svc.EpochStatus(1, last); return !partial && merged == 1 }},
		{"ObservedAccuracy", 1, func() bool { qa, ok := svc.ObservedAccuracy(1, last, 0); return ok && qa.CMSRows == 4 }},
		{"ObservedAccuracy/bloom", 1, func() bool { qa, ok := svc.ObservedAccuracy(4, last, 0); return ok && qa.BloomRows == 4 }},
	}
	for _, r := range reads {
		if !r.call() {
			t.Errorf("%s does not answer for the newest epoch", r.name)
		}
		if got := testing.AllocsPerRun(100, func() { r.call() }); got > r.max {
			t.Errorf("%s allocates %v objects a call, want at most %v", r.name, got, r.max)
		}
	}
}

// TestEpochPathHeldState: what the epoch path keeps between epochs
// follows the registers the traffic touched. The epoch-storm switch's 18
// rows are 1.18 MB of registers, a few hundred of them nonzero: each end
// of its stream holds under a twelfth of that — two sets a bank at a bit
// a register are a sixteenth before the first value, and the exporter
// keeps no capture beside them (it packs from the registers); measured
// 85 KB at the exporter and 76 KB at the analyzer, where the dense bases
// were 1.18 MB and 2.36 MB. The analyzer's merged rows, KeepEpochs of
// them a bank, hold under a 24th of the 9.4 MB they did as dense uint64
// rows. The other way round, a bank with every register set costs each of
// a codec end's two sets its values plus that bit a register — 1/32 over
// the dense array, never more — and its merged row 1/64 over the dense
// one.
func TestEpochPathHeldState(t *testing.T) {
	svc := telemetry.NewService(telemetry.ServiceConfig{KeepEpochs: 4})
	defer svc.Close()
	exp, epoch := stormSwitch(t, svc)
	for i := 0; i < 10; i++ { // a keyframe cadence and more: both sets of every bank exist
		epoch()
	}
	wi, _ := svc.AgentWire("s1")
	merged := svc.Stats().MergedBytes
	const denseRows = 4 * stormRows * stormWidth * 8 // KeepEpochs x rows x width x uint64
	t.Logf("held for %d B of registers: exporter %d B, analyzer %d B; merged rows %d B (dense: %d B)",
		stormRawBytes, exp.CodecHeldBytes(), wi.HeldBytes, merged, denseRows)
	if held := exp.CodecHeldBytes(); held == 0 || held > stormRawBytes/12 {
		t.Errorf("the exporter's encoder holds %d B for %d B of registers", held, stormRawBytes)
	}
	if held := int(wi.HeldBytes); held == 0 || held > stormRawBytes/12 {
		t.Errorf("the analyzer's decoder holds %d B for %d B of registers", held, stormRawBytes)
	}
	if merged == 0 || merged > denseRows/24 {
		t.Errorf("the merged rows hold %d B, where the dense rows held %d B", merged, denseRows)
	}

	const width = 4096
	full := cmsBank(9, make([]uint32, width)...)
	for i := range full.Values {
		full.Values[i] = uint32(i) + 1
	}
	fullExp := connect(t, svc, "full", telemetry.ExporterConfig{Codec: telemetry.CodecBinary}, nil)
	defer fullExp.Close()
	for e := uint32(1); e <= 2; e++ {
		before := svc.Stats().Snapshots
		if err := fullExp.ExportSnapshot(e, []modules.BankSnapshot{full}); err != nil {
			t.Fatal(err)
		}
		waitFor(t, "full bank merged", func() bool { return svc.Stats().Snapshots == before+1 })
	}
	const perSet = width*4 + width*4/32 + 512 // values + bitmap + the encoder's room to pack a word into
	const perRow = width*8*65/64 + 512        // sums + a bitmap of 1/64 of them, and slack
	wi, _ = svc.AgentWire("full")
	if grew := svc.Stats().MergedBytes - merged; grew == 0 || grew > 2*perRow {
		t.Errorf("two epochs of a full bank of %d B grew the merged rows by %d B, want at most 2 x %d", width*8, grew, perRow)
	}
	if held := fullExp.CodecHeldBytes(); held == 0 || held > 2*perSet {
		t.Errorf("the encoder holds %d B for a full bank of %d B, want at most 2 x %d", held, width*4, perSet)
	}
	if held := int(wi.HeldBytes); held == 0 || held > 2*perSet {
		t.Errorf("the decoder holds %d B for a full bank of %d B, want at most 2 x %d", held, width*4, perSet)
	}
}

// TestMergedRowsOutliveTheirEpoch: the analyzer builds each new merged
// epoch of a query in the memory of the one it evicts, so what MergedRows
// hands out must be the caller's own copy — a result held across the
// eviction keeps its values — and a recycled bank must start from zero,
// not from the evicted epoch's counts. A snapshot older than everything
// a full ring retains is dropped whole, as it was when it was merged and
// evicted in one step. And an epoch leaves whole: a row that stops
// arriving does not keep serving epochs its query has evicted.
func TestMergedRowsOutliveTheirEpoch(t *testing.T) {
	svc := telemetry.NewService(telemetry.ServiceConfig{KeepEpochs: 2})
	defer svc.Close()
	exp := connect(t, svc, "sw1", telemetry.ExporterConfig{}, nil)
	defer exp.Close()
	sendBanks := func(epoch uint32, banks ...modules.BankSnapshot) {
		t.Helper()
		sendSnapshot(t, svc, exp, epoch, banks)
	}
	send := func(epoch uint32, vals ...uint32) {
		t.Helper()
		sendBanks(epoch, cmsBank(1, vals...))
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

	type status struct {
		partial bool
		missing []string
		merged  int
	}
	statusOf := func(epoch uint32) status {
		p, miss, m := svc.EpochStatus(1, epoch)
		return status{p, miss, m}
	}
	contributors, at4 := svc.Contributors(1), statusOf(4)
	send(4, 9, 9, 9) // a straggler older than both retained epochs
	if rows := svc.MergedRows(1, 0, 4); len(rows) != 0 {
		t.Errorf("a straggler displaced a newer epoch: %d rows at epoch 4", len(rows))
	}
	if len(svc.MergedRows(1, 0, 6)) != 1 || len(svc.MergedRows(1, 0, 7)) != 1 {
		t.Error("the straggler evicted a retained epoch")
	}
	if got := svc.Contributors(1); !reflect.DeepEqual(got, contributors) {
		t.Errorf("the straggler changed Contributors: %v, was %v", got, contributors)
	}
	if got := statusOf(4); !reflect.DeepEqual(got, at4) {
		t.Errorf("the straggler was recorded: EpochStatus(4) = %+v, was %+v", got, at4)
	}

	// A second row arrives for two epochs and then stops, while the first
	// carries on: the epochs it was part of are evicted with the rest.
	second := cmsBank(1, 2, 2)
	second.Row = 1
	sendBanks(8, cmsBank(1, 1, 1, 1), second)
	sendBanks(9, cmsBank(1, 1, 1, 1), second)
	if rows := svc.MergedRows(1, 0, 9); len(rows) != 2 || rows[1].Values[0] != 2 {
		t.Fatalf("epoch 9 with both rows: %+v", rows)
	}
	for e := uint32(10); e <= 15; e++ {
		send(e, 3, 3, 3)
	}
	if rows := svc.MergedRows(1, 0, 9); len(rows) != 0 {
		t.Errorf("epoch 9, evicted five epochs ago, still serves %d rows (values %v)", len(rows), rows[0].Values)
	}
	if qa, ok := svc.ObservedAccuracy(1, 9, 0); ok {
		t.Errorf("ObservedAccuracy of the evicted epoch 9: ok, StreamTotal=%d", qa.StreamTotal)
	}
	if got, never := statusOf(9), statusOf(1000); got.merged != 0 || !reflect.DeepEqual(got, never) {
		t.Errorf("EpochStatus of the evicted epoch 9 = %+v, of one never seen = %+v", got, never)
	}
	if rows := svc.MergedRows(1, 0, 15); len(rows) != 1 || rows[0].Values[0] != 3 {
		t.Errorf("epoch 15 holds the row that still arrives and no other: %+v", rows)
	}
	if n := svc.BankSlots(1); n != 2 {
		t.Errorf("query 1 holds %d rows of memory over its 2 epochs, want the one that still arrives in each", n)
	}
}
