package main

import (
	"fmt"
	"net"
	"runtime"
	"time"

	"github.com/newton-net/newton/internal/analyzer"
	"github.com/newton-net/newton/internal/classify"
	"github.com/newton-net/newton/internal/compiler"
	"github.com/newton-net/newton/internal/dataplane"
	"github.com/newton-net/newton/internal/fields"
	"github.com/newton-net/newton/internal/modules"
	"github.com/newton-net/newton/internal/netsim"
	"github.com/newton-net/newton/internal/orchestrator"
	"github.com/newton-net/newton/internal/placement"
	"github.com/newton-net/newton/internal/query"
	"github.com/newton-net/newton/internal/rpc"
	"github.com/newton-net/newton/internal/scheduler"
	"github.com/newton-net/newton/internal/telemetry"
	"github.com/newton-net/newton/internal/topology"
	"github.com/newton-net/newton/internal/wire"
)

// The layer functions a cycle does not reach on its own — or reaches
// only buried inside a larger step — are timed here in isolation, on
// the workload's own packets, programs and captured payloads, with the
// same floor rule as everything else.

// layerTimer collects the isolated timings of one workload.
type layerTimer struct {
	m    mins
	out  map[string]float64
	errs []error
}

// floorOf times fn: n samples of batch calls each, reduced to the floor
// of the per-call time in ns.
func (lt *layerTimer) floorOf(name string, n, batch int, fn func()) float64 {
	s := &series{name: name, min: n}
	for i := 0; i < n; i++ {
		start := time.Now()
		for j := 0; j < batch; j++ {
			fn()
		}
		s.add(float64(time.Since(start).Nanoseconds()) / float64(batch))
	}
	st, err := s.stats()
	if err != nil {
		lt.errs = append(lt.errs, err)
	}
	return st.Floor
}

// ns, us record a floor under a metric name in its unit.
func (lt *layerTimer) ns(name string, batch int, fn func()) {
	lt.out[name] = lt.floorOf(name, lt.m.us, batch, fn)
}

func (lt *layerTimer) us(name string, n int, fn func()) {
	lt.out[name] = lt.floorOf(name, n, 1, fn) / 1e3
}

// phases times an operation made of consecutive phases, n times over:
// body calls start when its untimed preparation is done and lap at the
// end of each phase, and each phase's floor is recorded in µs under its
// name.
func (lt *layerTimer) phases(n int, names []string, body func(start, lap func()) error) error {
	cols := make([]*series, len(names))
	for i, name := range names {
		cols[i] = &series{name: name, min: n}
	}
	for i := 0; i < n; i++ {
		var mark time.Time
		k := 0
		start := func() { mark = time.Now() }
		lap := func() {
			now := time.Now()
			cols[k].add(float64(now.Sub(mark).Nanoseconds()) / 1e3)
			k, mark = k+1, now
		}
		if err := body(start, lap); err != nil {
			return err
		}
	}
	for i, name := range names {
		st, err := cols[i].stats()
		if err != nil {
			return err
		}
		lt.out[name] = st.Floor
	}
	return nil
}

// isolated is one switch loaded with the workload's base programs and
// nothing around it: no agent, no exporter, no fleet.
type isolated struct {
	sw  *dataplane.Switch
	eng *modules.Engine
}

// compileBase compiles the workload's base intents the way the
// controller does for a replicated install.
func compileBase(d *dials) ([]*modules.Program, error) {
	var out []*modules.Program
	for i, in := range d.intents(d) {
		o := compiler.AllOpts()
		o.QID, o.Width = i+1, d.width
		p, err := compiler.Compile(in.Query, o)
		if err != nil {
			return nil, fmt.Errorf("compiling %s: %w", in.Query.Name, err)
		}
		if p.NumStages() > d.stages {
			continue // a partitioned intent has no single-switch form
		}
		out = append(out, p)
	}
	return out, nil
}

func newIsolated(d *dials) (*isolated, error) {
	layout, err := modules.NewLayout(modules.LayoutCompact, d.stages, d.arraySize)
	if err != nil {
		return nil, err
	}
	iso := &isolated{eng: modules.NewEngine(layout)}
	iso.eng.SetWorkers(1)
	iso.sw = dataplane.NewSwitch("iso", d.stages, modules.StageCapacity())
	iso.sw.SetLanes(1)
	if err := iso.sw.AddRoute(0, 0, 1); err != nil {
		return nil, err
	}
	iso.sw.Monitor = iso.eng
	progs, err := compileBase(d)
	if err != nil {
		return nil, err
	}
	for _, p := range progs {
		if err := iso.eng.Install(p); err != nil {
			return nil, fmt.Errorf("installing qid %d: %w", p.QID, err)
		}
	}
	return iso, nil
}

// layerPackets is how much of the packet set the isolated per-packet
// timings pass over.
const layerPackets = 1024

// q6Source is Q6 in the intent DSL, the text query.Parse is timed on.
const q6Source = `filter(proto == tcp && tcp_flags == syn) | map(dip) | reduce(dip, sum) | filter(result > 0) ;
filter(proto == tcp && tcp_flags == synack) | map(sip) | reduce(sip, sum) | filter(result > 0) ;
filter(proto == tcp && tcp_flags == ack) | map(dip) | reduce(dip, sum) | filter(result > 0) ;
merge(1, 1, -2 > 30)`

// timeLayers runs every isolated timing for one workload. live is the
// fleet the cycles just ran on; the control-plane calls that need real
// agents (controller, rpc, plan) are timed against it.
func timeLayers(d *dials, l *load, live *fleet, m mins) (map[string]float64, error) {
	lt := &layerTimer{m: m, out: map[string]float64{}}
	if err := lt.dataPlane(d, l); err != nil {
		return nil, err
	}
	if err := lt.planning(d); err != nil {
		return nil, err
	}
	if err := lt.control(d, live); err != nil {
		return nil, err
	}
	if err := lt.codec(d, l); err != nil {
		return nil, err
	}
	lt.autonomy()
	if len(lt.errs) > 0 {
		return nil, lt.errs[0]
	}
	return lt.out, nil
}

// dataPlane times the packet's path through one switch and the
// simulated network around it.
func (lt *layerTimer) dataPlane(d *dials, l *load) error {
	iso, err := newIsolated(d)
	if err != nil {
		return err
	}
	// A thousand packets a pass: the per-packet floors do not need more,
	// and on flood every one of them is a 3 µs miss.
	pkts := l.pkts[:min(layerPackets, len(l.pkts))]
	cycle := uint64(1 << 20) // windows no fleet cycle uses
	pass := func() {
		cycle++
		l.stamp(cycle, d)
		for _, p := range pkts {
			iso.sw.Process(p)
		}
		iso.sw.DrainReports()
	}
	pass() // warm the dispatch cache and compile the classifier
	perPkt := float64(len(pkts))
	with := lt.floorOf("modules.execute_ns", lt.m.ms, 1, pass) / perPkt
	iso.sw.Monitor = nil
	without := lt.floorOf("modules.execute_ns", lt.m.ms, 1, pass) / perPkt
	iso.sw.Monitor = iso.eng
	lt.out["modules.execute_ns"] = with - without

	i := 0
	lt.ns("dataplane.table_lookup_ns", 1024, func() {
		iso.sw.Forwarding.Lookup(uint64(pkts[i%len(pkts)].IP.Dst))
		i++
	})

	// The newton_init classifier: compile its rule set from scratch, and
	// look packets up in the table as the engine does on a cache miss.
	init := iso.eng.Layout().Init
	var rules []classify.Rule
	for _, r := range init.Rules() {
		rules = append(rules, classify.Rule{Values: r.Values, Masks: r.Masks})
	}
	lt.us("classify.compile_us", lt.m.ms, func() { classify.Compile(init.Cols, rules, classify.DefaultConfig()) })
	var matched []*dataplane.Rule
	lt.ns("classify.lookup_ns", 1024, func() {
		v := pkts[i%len(pkts)].Fields()
		vals := [6]uint64{v.Get(fields.SrcIP), v.Get(fields.DstIP), v.Get(fields.Proto),
			v.Get(fields.SrcPort), v.Get(fields.DstPort), v.Get(fields.TCPFlags)}
		matched = init.LookupAllAppend(matched[:0], vals[:])
		i++
	})

	// Install and remove of one more program on the loaded engine.
	o := compiler.AllOpts()
	o.QID, o.Width = 4000, d.width
	err = lt.phases(lt.m.ms, []string{"modules.install_us", "modules.remove_us"}, func(start, lap func()) error {
		p, err := compiler.Compile(d.catalog()[0], o)
		if err != nil {
			return err
		}
		start()
		err = iso.eng.Install(p)
		lap()
		if err != nil {
			return fmt.Errorf("isolated install: %w", err)
		}
		err = iso.eng.Remove(p.QID)
		lap()
		return err
	})
	if err != nil {
		return err
	}

	// Snapshot and roll are timed on banks a pass has just filled: rolled
	// banks read as zero and would snapshot for free.
	err = lt.phases(lt.m.ms, []string{"modules.snapshot_banks_us", "modules.roll_epoch_us"}, func(start, lap func()) error {
		pass()
		start()
		iso.eng.SnapshotBanks()
		lap()
		iso.eng.RollEpoch()
		lap()
		return nil
	})
	if err != nil {
		return err
	}

	// The simulated network: hop-by-hop delivery along the line, and
	// two-lane batch delivery (the one number here taken at GOMAXPROCS=2;
	// on a two-core shared host it says little, which is why it gates
	// nothing).
	l.stamp(0, d)
	nw, _, _, err := loadedNet(d, 1)
	if err != nil {
		return err
	}
	path := nw.Topo.Switches()
	lt.out["netsim.deliver_path_ns"] = lt.floorOf("netsim.deliver_path_ns", lt.m.ms, 1, func() {
		for _, p := range pkts {
			nw.DeliverPath(p, path)
		}
	}) / perPkt
	nw, h1, h2, err := loadedNet(d, 2)
	if err != nil {
		return err
	}
	prev := runtime.GOMAXPROCS(2)
	lt.out["netsim.deliver_batch2_ns"] = lt.floorOf("netsim.deliver_batch2_ns", lt.m.ms, 1, func() {
		nw.DeliverBatch(pkts, h1, h2)
	}) / perPkt
	runtime.GOMAXPROCS(prev)
	return nil
}

// loadedNet builds the workload's line as a simulated network with the
// base programs on its first switch.
func loadedNet(d *dials, lanes int) (nw *netsim.Network, h1, h2 int, err error) {
	topo, h1, h2 := topology.Linear(d.switches)
	nw, err = netsim.New(topo, netsim.Config{Stages: d.stages, ArraySize: d.arraySize, Workers: lanes})
	if err != nil {
		return nil, 0, 0, err
	}
	progs, err := compileBase(d)
	if err != nil {
		return nil, 0, 0, err
	}
	for _, p := range progs {
		if err := nw.Node(topo.Switches()[0]).Eng.Install(p); err != nil {
			return nil, 0, 0, err
		}
	}
	return nw, h1, h2, nil
}

// planning times the pure steps of the intent's journey.
func (lt *layerTimer) planning(d *dials) error {
	var parseErr error
	lt.us("query.parse_us", lt.m.us, func() {
		if _, err := query.Parse("q6", q6Source); err != nil {
			parseErr = err
		}
	})
	if parseErr != nil {
		return fmt.Errorf("parsing the q6 source: %w", parseErr)
	}
	o := compiler.AllOpts()
	o.QID, o.Width = 1, d.width
	q4 := d.catalog()[3]
	lt.us("compiler.compile_us", lt.m.us, func() { compiler.Compile(q4, o) })

	budget := scheduler.Budget{Stages: d.stages, ArraySize: d.arraySize, RulesPerModule: 256}
	tr := scheduler.NewTracker(budget)
	progs, err := compileBase(d)
	if err != nil {
		return err
	}
	for _, p := range progs {
		tr.Commit(p)
	}
	one := progs[0]
	lt.us("scheduler.fits_us", lt.m.us, func() {
		c := tr.Clone()
		if ok, _ := c.Fits(one); ok {
			c.Commit(one)
		}
	})

	topo, _, _ := topology.Linear(d.switches)
	edges := topo.EdgeSwitches()[:1]
	lt.us("placement.place_us", lt.m.us, func() { placement.Place(topo, edges, 11, max(d.stages-2, 1)) })
	return nil
}

// control times the calls that need real agents, on the live fleet,
// after its cycles are done.
func (lt *layerTimer) control(d *dials, f *fleet) error {
	lt.us("orchestrator.plan_us", lt.m.ms, func() { f.orch.Plan() })
	lt.us("rpc.call_us", lt.m.us, func() { f.nodes[0].cli.Stats() })
	qid := f.orch.QID(d.intents(d)[0].Query.Name)
	lt.us("telemetry.latest_settled_us", lt.m.us, func() { f.svc.LatestSettledEpoch(qid) })

	q := renamed(d.catalog()[0], "layers/q1")
	names := []string{"controller.install_us", "controller.resize_us", "controller.remove_us"}
	err := lt.phases(lt.m.ms, names, func(start, lap func()) error {
		start()
		id, _, err := f.ctl.Install(q, d.width, []string{f.nodes[0].name})
		lap()
		if err != nil {
			return fmt.Errorf("controller install: %w", err)
		}
		_, err = f.ctl.ResizeWidth(id, d.width/2)
		lap()
		if err != nil {
			return fmt.Errorf("controller resize: %w", err)
		}
		err = f.ctl.Remove(id)
		lap()
		return err
	})
	if err != nil {
		return err
	}

	var tickErr error
	lt.us("controller.tick_us", lt.m.ms, func() {
		if err := f.ctl.Tick(); err != nil {
			tickErr = err
		}
	})
	if tickErr != nil {
		return fmt.Errorf("controller tick: %w", tickErr)
	}
	return nil
}

// codec times the wire codec on payloads captured from the workload,
// and the analyzer's private ingest and merge paths by feeding a
// Service pre-encoded frames over net.Pipe.
func (lt *layerTimer) codec(d *dials, l *load) error {
	iso, err := newIsolated(d)
	if err != nil {
		return err
	}
	l.stamp(1<<21, d)
	for _, p := range l.pkts {
		iso.sw.Process(p)
	}
	reports := iso.sw.DrainReports()
	if len(reports) == 0 {
		return fmt.Errorf("workload %s mirrors no reports to time the codec on", d.name)
	}
	for len(reports) < 256 {
		reports = append(reports, reports...)
	}
	reports = reports[:256]
	perReport := float64(len(reports))
	banks := iso.eng.SnapshotBanks()

	var buf []byte
	lt.out["wire.encode_reports_ns_per_report"] = lt.floorOf("wire.encode_reports", lt.m.us, 1, func() {
		buf = wire.AppendReports(buf[:0], "iso", reports)
	}) / perReport
	lt.out["wire.bytes_per_report"] = float64(len(buf)) / perReport
	var decErr error
	lt.out["wire.decode_reports_ns_per_report"] = lt.floorOf("wire.decode_reports", lt.m.us, 1, func() {
		if _, err := wire.DecodeReports(buf, "iso"); err != nil {
			decErr = err
		}
	}) / perReport
	if decErr != nil {
		return fmt.Errorf("decoding the captured report batch: %w", decErr)
	}
	col := analyzer.NewCollector(uint64(window), d.catalog()[0].ReportKeys())
	i := 0
	lt.ns("analyzer.collector_add_ns", 256, func() {
		col.Add(reports[i%len(reports)])
		i++
	})

	enc := &wire.SnapshotEncoder{KeyframeEvery: 1}
	var snap []byte
	lt.us("wire.encode_snapshot_us", lt.m.ms, func() { snap, _ = enc.Encode(snap[:0], 7, banks) })
	lt.out["wire.snapshot_bytes"] = float64(len(snap))
	lt.us("wire.compress_us", lt.m.ms, func() { wire.Compress(snap, 512) })
	var dec wire.SnapshotDecoder
	lt.us("wire.decode_snapshot_us", lt.m.ms, func() {
		if _, _, err := dec.Decode(snap); err != nil {
			decErr = err
		}
	})
	if decErr != nil {
		return fmt.Errorf("decoding the captured snapshot: %w", decErr)
	}

	// A Service on one end of a pipe: a write returns only when the
	// handler has come back to read, so a frame followed by a marker
	// frame times the first frame's whole ingest.
	svc := telemetry.NewService(telemetry.ServiceConfig{Window: window, KeepEpochs: d.keepEpochs})
	defer svc.Close()
	cli, srv := net.Pipe()
	done := make(chan error, 1) // one send, from the one handler
	go func() { done <- svc.HandleConn(srv) }()
	if err := rpc.WriteFrame(cli, &telemetry.Frame{Type: telemetry.FrameHello, SwitchID: "iso", Wire: wire.Version1}); err != nil {
		return err
	}
	var ack telemetry.Frame
	if err := rpc.ReadFrame(cli, &ack); err != nil {
		return fmt.Errorf("reading the hello-ack: %w", err)
	}
	marker := wire.AppendReports(nil, "iso", reports[:1])
	var pipeErr error
	send := func(kind wire.Kind, payload []byte) {
		if err := wire.WriteFrame(cli, kind, 0, payload); err != nil {
			pipeErr = err
		}
		if err := wire.WriteFrame(cli, wire.KindReports, 0, marker); err != nil {
			pipeErr = err
		}
	}
	lt.out["telemetry.ingest_reports_ns_per_report"] = lt.floorOf("telemetry.ingest_reports", lt.m.us, 1, func() {
		send(wire.KindReports, buf)
	}) / perReport
	epoch := uint32(0)
	mergeErr := lt.phases(lt.m.ms, []string{"telemetry.merge_us_per_snapshot"}, func(start, lap func()) error {
		epoch++
		snap, _ = enc.Encode(snap[:0], epoch, banks)
		start()
		send(wire.KindSnapshot, snap)
		lap()
		return pipeErr
	})
	cli.Close()
	if err := <-done; err != nil && pipeErr == nil {
		pipeErr = err
	}
	if pipeErr != nil {
		return fmt.Errorf("feeding the piped service: %w", pipeErr)
	}
	return mergeErr
}

// fakeFleet stands in for the orchestrator under the two autonomous
// controllers: their own round cost is what is timed, not a converge.
type fakeFleet struct {
	intents  []orchestrator.Intent
	deployed map[string]orchestrator.QueryPlan
	qids     map[string]int
	epoch    uint32
}

func (f *fakeFleet) Drain(string)   {}
func (f *fakeFleet) Undrain(string) {}
func (f *fakeFleet) Converge() (*orchestrator.Plan, orchestrator.Diff, error) {
	return &orchestrator.Plan{}, orchestrator.Diff{}, nil
}
func (f *fakeFleet) Plan() (*orchestrator.Plan, orchestrator.Diff, error) { return f.Converge() }
func (f *fakeFleet) Intents() []orchestrator.Intent                       { return f.intents }
func (f *fakeFleet) Deployed() map[string]orchestrator.QueryPlan          { return f.deployed }
func (f *fakeFleet) QID(name string) int                                  { return f.qids[name] }
func (f *fakeFleet) SetWidthCap(string, uint32)                           {}

// The refiner sees a new settled epoch every step, always within
// tolerance, so it examines every intent and decides nothing.
func (f *fakeFleet) LatestSettledEpoch(int) (uint32, bool) { return f.epoch, true }
func (f *fakeFleet) ObservedAccuracy(_ int, epoch uint32, scale uint64) (telemetry.QueryAccuracy, bool) {
	return telemetry.QueryAccuracy{Epoch: epoch, StreamTotal: 1000, Scale: scale,
		Eps: 0.001, Delta: 0.1, AbsErr: 1, RelErr: 0.1, Width: 1024, CMSRows: 2}, true
}

// fakeSwitches is the size of the fake fleet the health monitor and
// the refiner are timed against.
const fakeSwitches = 64

// autonomy times one round of the health monitor and of the accuracy
// refiner over a fake 64-switch, 64-intent fleet: the code behind MTTR,
// which itself is debounce constants times a probe interval and is not
// measured.
func (lt *layerTimer) autonomy() {
	ff := &fakeFleet{deployed: map[string]orchestrator.QueryPlan{}, qids: map[string]int{}}
	var names []string
	for i := 0; i < fakeSwitches; i++ {
		names = append(names, fmt.Sprintf("s%d", i+1))
		name := fmt.Sprintf("fake/q%d", i+1)
		ff.qids[name] = i + 1
		in := orchestrator.Intent{Query: renamed(query.Q1(40), name), MinWidth: 256, MaxWidth: 4096,
			Accuracy: query.Accuracy{MaxRelErr: 0.25}}
		ff.intents = append(ff.intents, in)
		ff.deployed[name] = orchestrator.QueryPlan{Intent: in, Admitted: true, Width: 1024, Single: true}
	}
	mon, err := orchestrator.NewMonitor(ff, names, orchestrator.HealthConfig{
		Probe: func(string) error { return nil }})
	if err != nil {
		lt.errs = append(lt.errs, err)
		return
	}
	lt.us("orchestrator.monitor_tick_us", lt.m.us, func() { mon.Tick() })
	ref := orchestrator.NewRefiner(ff, ff, orchestrator.RefinerConfig{})
	lt.us("orchestrator.refiner_step_us", lt.m.us, func() {
		ff.epoch++
		if _, err := ref.Step(); err != nil {
			lt.errs = append(lt.errs, err)
		}
	})
}
