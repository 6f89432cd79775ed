package telemetry_test

import (
	"net"
	"sync"
	"testing"
	"time"

	"github.com/newton-net/newton/internal/analyzer"
	"github.com/newton-net/newton/internal/compiler"
	"github.com/newton-net/newton/internal/controller"
	"github.com/newton-net/newton/internal/dataplane"
	"github.com/newton-net/newton/internal/fields"
	"github.com/newton-net/newton/internal/modules"
	"github.com/newton-net/newton/internal/query"
	"github.com/newton-net/newton/internal/rpc"
	"github.com/newton-net/newton/internal/sketch"
	"github.com/newton-net/newton/internal/telemetry"
	"github.com/newton-net/newton/internal/trace"
)

// connect wires a fresh exporter to svc over net.Pipe, optionally
// wrapping the exporter-side conn (e.g. to slow it down).
func connect(t *testing.T, svc *telemetry.Service, id string, cfg telemetry.ExporterConfig,
	wrap func(net.Conn) net.Conn) *telemetry.Exporter {
	t.Helper()
	server, client := net.Pipe()
	go svc.HandleConn(server)
	var conn net.Conn = client
	if wrap != nil {
		conn = wrap(client)
	}
	cfg.SwitchID = id
	exp, err := telemetry.NewExporter(conn, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return exp
}

// waitFor polls cond for up to 5 seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func report(qid int, ts, dip uint64) dataplane.Report {
	var keys fields.Vector
	keys.Set(fields.DstIP, dip)
	return dataplane.Report{
		QueryID: qid, TS: ts, Keys: keys, KeyMask: fields.Keep(fields.DstIP),
	}
}

// slowConn injects a write delay, making the stream the bottleneck.
type slowConn struct {
	net.Conn
	delay time.Duration
}

func (c slowConn) Write(p []byte) (int, error) {
	time.Sleep(c.delay)
	return c.Conn.Write(p)
}

func TestExporterDeliversAndSaysBye(t *testing.T) {
	svc := telemetry.NewService(telemetry.ServiceConfig{})
	defer svc.Close()
	exp := connect(t, svc, "sw1", telemetry.ExporterConfig{}, nil)

	rs := make([]dataplane.Report, 10)
	for i := range rs {
		rs[i] = report(1, uint64(i), uint64(100+i))
	}
	exp.Export(rs)
	if err := exp.Flush(); err != nil {
		t.Fatal(err)
	}
	st := exp.Stats()
	if st.Enqueued != 10 || st.Exported != 10 || st.Dropped != 0 {
		t.Fatalf("exporter stats = %+v", st)
	}
	waitFor(t, "service ingest", func() bool { return svc.Stats().Reports == 10 })

	if got := len(svc.DrainReports()); got != 10 {
		t.Errorf("service drained %d reports, want 10", got)
	}

	if err := exp.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "bye frame", func() bool {
		_, _, bye, ok := svc.AgentStats("sw1")
		return ok && bye != nil
	})
	_, _, bye, _ := svc.AgentStats("sw1")
	if bye.Exported != 10 || bye.Dropped != 0 {
		t.Errorf("final accounting = %+v", bye)
	}
}

func TestBlockPolicyIsLosslessUnderPressure(t *testing.T) {
	svc := telemetry.NewService(telemetry.ServiceConfig{})
	defer svc.Close()
	// Tiny ring, slow stream: producers must block, never lose.
	exp := connect(t, svc, "sw1", telemetry.ExporterConfig{
		RingSize: 8, BatchSize: 4, Policy: telemetry.PolicyBlock,
	}, func(c net.Conn) net.Conn { return slowConn{c, 100 * time.Microsecond} })

	const producers, per = 4, 300
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				exp.Export([]dataplane.Report{report(1, uint64(p*per+i), uint64(i))})
			}
		}(p)
	}
	wg.Wait()
	if err := exp.Flush(); err != nil {
		t.Fatal(err)
	}
	st := exp.Stats()
	if st.Enqueued != producers*per {
		t.Fatalf("enqueued = %d, want %d", st.Enqueued, producers*per)
	}
	if st.Dropped != 0 {
		t.Fatalf("dropped = %d under block policy, want 0", st.Dropped)
	}
	if st.Exported != producers*per {
		t.Fatalf("exported = %d, want %d", st.Exported, producers*per)
	}
	waitFor(t, "all reports ingested", func() bool {
		return svc.Stats().Reports == producers*per
	})
	exp.Close()
}

func TestDropOldestAccountsEveryLoss(t *testing.T) {
	svc := telemetry.NewService(telemetry.ServiceConfig{})
	defer svc.Close()
	exp := connect(t, svc, "sw1", telemetry.ExporterConfig{
		RingSize: 4, BatchSize: 2, Policy: telemetry.PolicyDropOldest,
	}, func(c net.Conn) net.Conn { return slowConn{c, time.Millisecond} })

	const n = 400
	for i := 0; i < n; i++ {
		exp.Export([]dataplane.Report{report(1, uint64(i), uint64(i))})
	}
	if err := exp.Flush(); err != nil {
		t.Fatal(err)
	}
	st := exp.Stats()
	if st.Enqueued != n {
		t.Fatalf("enqueued = %d, want %d", st.Enqueued, n)
	}
	if st.Dropped == 0 || st.Overflows == 0 {
		t.Fatalf("slow stream with a 4-slot ring dropped nothing: %+v", st)
	}
	if st.Exported+st.Dropped != n {
		t.Fatalf("exported %d + dropped %d != enqueued %d", st.Exported, st.Dropped, n)
	}
	waitFor(t, "ingest to match exported", func() bool {
		return svc.Stats().Reports == st.Exported
	})
	exp.Close()
}

func TestBlockPolicySurvivesDeadAnalyzer(t *testing.T) {
	svc := telemetry.NewService(telemetry.ServiceConfig{})
	defer svc.Close()
	server, client := net.Pipe()
	go svc.HandleConn(server)
	exp, err := telemetry.NewExporter(client, telemetry.ExporterConfig{
		SwitchID: "sw1", RingSize: 8, Policy: telemetry.PolicyBlock,
	})
	if err != nil {
		t.Fatal(err)
	}
	server.Close() // the analyzer dies mid-stream

	// Exporting far more than the ring holds must not deadlock: the
	// writer keeps draining and accounts the loss.
	done := make(chan struct{})
	go func() {
		for i := 0; i < 1000; i++ {
			exp.Export([]dataplane.Report{report(1, uint64(i), 7)})
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("block-policy producer deadlocked on a dead analyzer")
	}
	if err := exp.Flush(); err == nil {
		t.Error("Flush hid the stream error")
	}
	st := exp.Stats()
	if st.Exported+st.Dropped != st.Enqueued {
		t.Errorf("loss accounting broken: %+v", st)
	}
	if st.Dropped == 0 {
		t.Error("a dead stream must show up in the drop counter")
	}
	exp.Close()
}

func TestAlertDedupAcrossSwitches(t *testing.T) {
	svc := telemetry.NewService(telemetry.ServiceConfig{Window: 100 * time.Millisecond})
	defer svc.Close()
	a := connect(t, svc, "a", telemetry.ExporterConfig{}, nil)
	b := connect(t, svc, "b", telemetry.ExporterConfig{}, nil)
	defer a.Close()
	defer b.Close()

	// The same (query, window, key) from two switches: one alert.
	ra := report(1, 10, 42)
	ra.SwitchID = "a"
	rb := report(1, 20, 42) // same window, same key, different switch
	rb.SwitchID = "b"
	// A different key in the same window, and the same key in the next
	// window: both fresh.
	rc := report(1, 30, 43)
	rc.SwitchID = "a"
	rd := report(1, uint64(150*time.Millisecond), 42)
	rd.SwitchID = "b"

	// Serialize the two streams so "first arrival" is deterministic:
	// switch a's batch lands before switch b's.
	a.Export([]dataplane.Report{ra, rc})
	a.Flush()
	waitFor(t, "switch a's reports", func() bool { return svc.Stats().Reports == 2 })
	b.Export([]dataplane.Report{rb, rd})
	b.Flush()
	waitFor(t, "4 raw reports", func() bool { return svc.Stats().Reports == 4 })

	got := svc.DrainReports()
	if len(got) != 3 {
		t.Fatalf("deduped alerts = %d, want 3", len(got))
	}
	if d := svc.Stats().DuplicateAlerts; d != 1 {
		t.Errorf("duplicate count = %d, want 1", d)
	}
	// First arrival wins: switch a's report for (window 0, key 42).
	for _, r := range got {
		if r.Keys.Get(fields.DstIP) == 42 && r.TS < 100 && r.SwitchID != "a" {
			t.Errorf("dedup kept the later switch's report: %+v", r)
		}
	}
}

func TestSubscriptionStreamsEvents(t *testing.T) {
	svc := telemetry.NewService(telemetry.ServiceConfig{})
	defer svc.Close()
	events, cancel := svc.Subscribe(8)
	exp := connect(t, svc, "sw1", telemetry.ExporterConfig{}, nil)
	defer exp.Close()

	exp.Export([]dataplane.Report{report(1, 5, 42)})
	select {
	case ev := <-events:
		if ev.Kind != telemetry.EventAlert || ev.Report.Keys.Get(fields.DstIP) != 42 || ev.Window != 0 {
			t.Fatalf("alert event = %+v", ev)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no alert event")
	}

	snap := modules.BankSnapshot{
		QueryID: 1, Row: 0, Kind: modules.BankCMSRow,
		Algo: sketch.CRC32IEEE, Seed: 99, Range: 16, Width: 16,
		KeyMask: fields.Keep(fields.DstIP), Values: make([]uint32, 16),
	}
	if err := exp.ExportSnapshot(0, []modules.BankSnapshot{snap}); err != nil {
		t.Fatal(err)
	}
	select {
	case ev := <-events:
		if ev.Kind != telemetry.EventSnapshotMerged || ev.SwitchID != "sw1" || ev.Banks != 1 {
			t.Fatalf("merge event = %+v", ev)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no snapshot-merged event")
	}

	cancel()
	if _, open := <-events; open {
		t.Error("cancel left the channel open")
	}
	cancel() // idempotent
}

func TestMergeArithmetic(t *testing.T) {
	// CMS rows sum counter-wise; Bloom rows OR bitwise.
	svc := telemetry.NewService(telemetry.ServiceConfig{})
	defer svc.Close()
	a := connect(t, svc, "a", telemetry.ExporterConfig{}, nil)
	b := connect(t, svc, "b", telemetry.ExporterConfig{}, nil)
	defer a.Close()
	defer b.Close()

	mk := func(kind modules.BankKind, vals []uint32) modules.BankSnapshot {
		return modules.BankSnapshot{
			QueryID: 1, Row: 0, Kind: kind,
			Algo: sketch.CRC32IEEE, Seed: 7, Range: 4, Width: 4,
			KeyMask: fields.Keep(fields.DstIP), Values: vals,
		}
	}
	bloomA := mk(modules.BankBloomRow, []uint32{1, 0, 0, 1})
	bloomA.Row = 1
	bloomB := mk(modules.BankBloomRow, []uint32{0, 1, 0, 1})
	bloomB.Row = 1
	if err := a.ExportSnapshot(3, []modules.BankSnapshot{mk(modules.BankCMSRow, []uint32{5, 0, 2, 9}), bloomA}); err != nil {
		t.Fatal(err)
	}
	if err := b.ExportSnapshot(3, []modules.BankSnapshot{mk(modules.BankCMSRow, []uint32{1, 4, 0, 1}), bloomB}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "both snapshots merged", func() bool { return svc.Stats().Snapshots == 2 })

	rows := svc.MergedRows(1, 0, 3)
	if len(rows) != 2 {
		t.Fatalf("merged rows = %d, want 2", len(rows))
	}
	wantCMS := []uint64{6, 4, 2, 10}
	wantBloom := []uint64{1, 1, 0, 1}
	for i, want := range wantCMS {
		if rows[0].Values[i] != want {
			t.Errorf("CMS slot %d = %d, want %d", i, rows[0].Values[i], want)
		}
	}
	for i, want := range wantBloom {
		if rows[1].Values[i] != want {
			t.Errorf("Bloom slot %d = %d, want %d", i, rows[1].Values[i], want)
		}
	}
	if len(rows[0].Switches) != 2 {
		t.Errorf("merge provenance = %v", rows[0].Switches)
	}
}

// TestShardedMergeMatchesSingleSwitch is the subsystem's acceptance
// proof: a remote deployment (net.Pipe-wired control channels and
// telemetry streams) runs a reduce query sharded across three switches,
// and the analyzer's merged Count-Min banks — and the estimates they
// answer — are identical, slot for slot, to a single unsharded switch
// that saw all the traffic.
func TestShardedMergeMatchesSingleSwitch(t *testing.T) {
	const width = 1 << 12
	q := query.Q1(40)

	// --- Sharded deployment: three switches, agents, exporters, service.
	svc := telemetry.NewService(telemetry.ServiceConfig{Window: 100 * time.Millisecond})
	defer svc.Close()
	names := []string{"a", "b", "c"}
	clients := map[string]*rpc.Client{}
	var sws []*dataplane.Switch
	var exps []*telemetry.Exporter
	for _, name := range names {
		layout, err := modules.NewLayout(modules.LayoutCompact, 16, 1<<15)
		if err != nil {
			t.Fatal(err)
		}
		eng := modules.NewEngine(layout)
		sw := dataplane.NewSwitch(name, 16, modules.StageCapacity())
		sw.AddRoute(0, 0, 1)
		sw.Monitor = eng
		sws = append(sws, sw)

		exp := connect(t, svc, name, telemetry.ExporterConfig{Policy: telemetry.PolicyBlock}, nil)
		exps = append(exps, exp)

		agent := rpc.NewAgent(sw, eng)
		exp.AttachAgent(agent, eng)
		server, client := net.Pipe()
		go agent.HandleConn(server)
		c := rpc.NewClient(client)
		t.Cleanup(func() { c.Close() })
		clients[name] = c
	}
	ctl := controller.NewRemote(clients, 1)
	ctl.AttachTelemetry(svc)
	qid, _, err := ctl.Deploy(0, controller.Want{Query: q, Width: width, Targets: names, Sharded: true})
	if err != nil {
		t.Fatal(err)
	}

	// --- Reference: one unsharded switch with the same query and width.
	refLayout, err := modules.NewLayout(modules.LayoutCompact, 16, 1<<15)
	if err != nil {
		t.Fatal(err)
	}
	refEng := modules.NewEngine(refLayout)
	refSw := dataplane.NewSwitch("ref", 16, modules.StageCapacity())
	refSw.AddRoute(0, 0, 1)
	refSw.Monitor = refEng
	o := compiler.AllOpts()
	o.QID = qid
	o.Width = width
	refProg, err := compiler.Compile(q, o)
	if err != nil {
		t.Fatal(err)
	}
	if err := refEng.Install(refProg); err != nil {
		t.Fatal(err)
	}

	// --- Identical traffic everywhere, one 90 ms window (epoch 0).
	victim := uint64(0x0A0000AA)
	tr := trace.Generate(trace.Config{Seed: 17, Flows: 300, Duration: 90 * time.Millisecond},
		trace.SYNFlood{Victim: uint32(victim), Packets: 500})
	for _, pkt := range tr.Packets {
		for _, sw := range sws {
			sw.Process(pkt)
		}
		refSw.Process(pkt)
	}

	refBanks := refEng.SnapshotBanks()

	// Push reports, then tick: OnEpoch exports each switch's epoch-0
	// banks before the roll.
	for i, sw := range sws {
		exps[i].Export(sw.DrainReports())
	}
	if err := ctl.Tick(); err != nil {
		t.Fatal(err)
	}
	for _, exp := range exps {
		if err := exp.Flush(); err != nil {
			t.Fatal(err)
		}
		if d := exp.Stats().Dropped; d != 0 {
			t.Fatalf("lossless deployment dropped %d reports", d)
		}
	}
	waitFor(t, "three snapshots merged", func() bool { return svc.Stats().Snapshots == 3 })
	// Snapshots are written synchronously while reports ride the async
	// writer, so the snapshot count can hit 3 before every report frame
	// lands — wait for the raw ingest count to match what was exported.
	var sent uint64
	for _, exp := range exps {
		sent += exp.Stats().Exported
	}
	waitFor(t, "all reports ingested", func() bool { return svc.Stats().Reports == sent })

	// --- The merged banks equal the single switch's, slot for slot.
	var refRows []modules.BankSnapshot
	for _, b := range refBanks {
		if b.Kind == modules.BankCMSRow && b.Branch == 0 {
			refRows = append(refRows, b)
		}
	}
	if len(refRows) == 0 {
		t.Fatal("reference produced no CMS rows")
	}
	merged := svc.MergedRows(qid, 0, 0)
	var mergedCMS []*telemetry.MergedBank
	for _, m := range merged {
		if m.Kind == modules.BankCMSRow {
			mergedCMS = append(mergedCMS, m)
		}
	}
	if len(mergedCMS) != len(refRows) {
		t.Fatalf("merged CMS rows = %d, reference has %d", len(mergedCMS), len(refRows))
	}
	for r := range refRows {
		if len(mergedCMS[r].Switches) != 3 {
			t.Errorf("row %d merged %v, want all three switches", r, mergedCMS[r].Switches)
		}
		for i, want := range refRows[r].Values {
			if got := mergedCMS[r].Values[i]; got != uint64(want) {
				t.Fatalf("row %d slot %d: merged %d != reference %d", r, i, got, want)
			}
		}
	}

	// --- And the estimates they answer match exactly.
	check := func(dip uint64) {
		var keys fields.Vector
		keys.Set(fields.DstIP, dip)
		got, ok := svc.Estimate(qid, 0, 0, &keys)
		if !ok {
			t.Fatalf("no merged estimate for key %d", dip)
		}
		want := ^uint64(0)
		kb := refRows[0].KeyMask.Bytes(&keys, nil)
		for _, b := range refRows {
			if v := uint64(b.Values[b.Slot(kb)]); v < want {
				want = v
			}
		}
		if got != want {
			t.Errorf("estimate(%d) = %d, single-switch reference = %d", dip, got, want)
		}
	}
	check(victim)
	for _, pkt := range tr.Packets[:50] {
		if pkt.IP.Dst != 0 {
			check(uint64(pkt.IP.Dst))
		}
	}

	// --- The deduplicated alert stream flags what the reference flags.
	window := uint64(q.Window)
	pushed := analyzer.NewCollector(window, q.ReportKeys())
	rs, err := ctl.Collect()
	if err != nil {
		t.Fatal(err)
	}
	pushed.AddAll(rs)
	ref := analyzer.NewCollector(window, q.ReportKeys())
	ref.AddAll(refSw.DrainReports())
	refFlagged := ref.FlaggedKeys()
	gotFlagged := pushed.FlaggedKeys()
	if len(refFlagged) == 0 || !refFlagged[victim] {
		t.Fatalf("reference did not flag the victim (flagged=%v)", refFlagged)
	}
	for k := range refFlagged {
		if !gotFlagged[k] {
			t.Errorf("sharded deployment missed key %d", k)
		}
	}
	for k := range gotFlagged {
		if !refFlagged[k] {
			t.Errorf("sharded deployment flagged spurious key %d", k)
		}
	}
}
