package main

import (
	"fmt"
	"runtime"
	"time"

	"github.com/newton-net/newton/internal/dataplane"
	"github.com/newton-net/newton/internal/fields"
	"github.com/newton-net/newton/internal/modules"
	"github.com/newton-net/newton/internal/orchestrator"
	"github.com/newton-net/newton/internal/packet"
	"github.com/newton-net/newton/internal/telemetry"
)

// probeOp is one kind of intent change. Every sample of a kind starts
// from the same deployment, so a kind's samples are identical work.
type probeOp struct {
	kind string
	// apply submits the change (SetIntents, Drain, ...); the cycle then
	// converges it.
	apply func(c *cycler)
	// result names the queries whose first settled epoch after the
	// deploy ends the intent_ms sample; empty means the change yields no
	// new result (a withdraw) and only deploy_ms is sampled.
	result []string
	// undo, when set, runs at the end of the same cycle and is sampled
	// as a "withdraw" deploy.
	undo func(c *cycler)
}

// alertID is one deduplicated alert: a deployed query and its report
// key's value.
type alertID struct {
	qid int
	key uint64
}

// alertSlack is how many alerts a cycle may raise that neither an
// injected attack nor the exact reference explains. Sketches overcount:
// with two Count-Min rows a benign key that collides with a victim in
// both rows alerts too (about one seed in a hundred has such a key);
// anything beyond a couple means the classifier or the counters are
// wrong.
const alertSlack = 2

// cycler drives one fleet through the cycle, from one goroutine, in a
// closed loop: each step starts only when the one before has answered.
type cycler struct {
	d   *dials
	f   *fleet
	l   *load
	rec *recorder // nil on the untraced run

	cycle  uint64 // window index of the current cycle
	opNext int
	maxQID int                   // highest qid the controller has handed out so far
	extra  []orchestrator.Intent // churn's probe intents currently submitted
	nameOf map[int]string        // deployed qid -> query name

	anchor     string          // the q1 intent alert probes and reads go to
	anchorHome int             // how many switches host it
	whole      map[string]bool // deployed queries with every partition hosted
	rows       []cmsRow        // the anchor's Count-Min rows, as s1 holds them
	probePkts  []*packet.Packet
	probeSeq   uint32
	probesThis []uint64 // alert-probe victims of the current cycle
	readSeq    int

	alerts map[alertID]bool           // alerts seen in the current window
	merged map[uint32]map[string]bool // epoch -> switches whose snapshot merged

	replicated bool     // every switch hosts every base intent
	s          *samples // what the current measuring phase collects

	// sampling is off during warm-up and in the cycle that re-warms the
	// dispatch cache after a probe block.
	sampling          bool
	attempted, failed int
	failures          []string
}

func newCycler(d *dials, f *fleet, l *load, rec *recorder, m mins) *cycler {
	c := &cycler{d: d, f: f, l: l, rec: rec,
		nameOf: map[int]string{}, whole: map[string]bool{},
		alerts: map[alertID]bool{}, merged: map[uint32]map[string]bool{},
	}
	c.anchor = d.intents(d)[0].Query.Name
	c.refreshDeployed()
	c.replicated = true
	for _, qp := range f.orch.Deployed() {
		c.replicated = c.replicated && qp.Single && len(qp.Targets) == len(f.nodes)
	}
	c.s = newSamples(d, m, c.replicated)

	// One alert probe is threshold+1 SYNs to a fresh victim.
	for i := int64(0); i <= d.thresholds[0]; i++ {
		c.probePkts = append(c.probePkts, &packet.Packet{
			IP:  packet.IPv4{TTL: 64, Proto: packet.ProtoTCP, Src: 0x0B0B_0B0B},
			TCP: &packet.TCP{SrcPort: 4242, DstPort: 80, Flags: packet.FlagSYN, Window: 65535},
		})
	}
	return c
}

// fail records a failed operation; the first few are kept verbatim.
func (c *cycler) fail(format string, args ...any) {
	c.failed++
	if len(c.failures) < 8 {
		c.failures = append(c.failures, fmt.Sprintf("cycle %d: ", c.cycle)+fmt.Sprintf(format, args...))
	}
}

// refreshDeployed rebuilds the name and qid maps after a converge.
func (c *cycler) refreshDeployed() {
	clear(c.nameOf)
	clear(c.whole)
	for name, qp := range c.f.orch.Deployed() {
		qid := c.f.orch.QID(name)
		c.nameOf[qid] = name
		c.maxQID = max(c.maxQID, qid)
		hosted := 0
		for _, parts := range qp.Parts {
			hosted += len(parts)
		}
		c.whole[name] = qp.Single || hosted >= qp.M
		if name == c.anchor {
			c.anchorHome = max(len(qp.Targets), len(qp.Parts))
		}
	}
}

// onEvent files one subscription event.
func (c *cycler) onEvent(ev telemetry.Event) {
	switch ev.Kind {
	case telemetry.EventAlert:
		if ev.Window == c.cycle {
			c.alerts[alertID{ev.Report.QueryID, reportKey(&ev.Report)}] = true
		}
	case telemetry.EventSnapshotMerged:
		m := c.merged[ev.Epoch]
		if m == nil {
			m = map[string]bool{}
			c.merged[ev.Epoch] = m
		}
		m[ev.SwitchID] = true
	}
}

// reportKey is the value of a report's (single-field) key, the way
// analyzer.Alert keys it.
func reportKey(r *dataplane.Report) uint64 {
	var out uint64
	for _, id := range r.KeyMask.Fields() {
		out ^= r.Keys.Get(id) & r.KeyMask[id]
	}
	return out
}

// await consumes subscription events until done reports true. It gives
// up after waitLimit.
func (c *cycler) await(done func() bool) bool {
	if done() {
		return true
	}
	t := time.NewTimer(waitLimit)
	defer t.Stop()
	for {
		select {
		case ev, ok := <-c.f.events:
			if !ok {
				return false
			}
			c.onEvent(ev)
			if done() {
				return true
			}
		case <-t.C:
			return false
		}
	}
}

// packets is step 1: every switch in turn processes the packet set and
// hands its mirrored reports to the exporter, and its pass ends when
// the exporter has put them on the wire. A pass is one sample (with
// group > 1, one group-th of a sample) of the switch's packet series:
// the same packets through the same programs every time. In a line
// fleet the passes run in path order and each packet keeps the result
// snapshot the previous hop attached, so a partitioned query sees its
// packets exactly as hop-by-hop delivery would show them.
func (c *cycler) packets(pkts []*packet.Packet, kind string, sample bool) {
	c.rec.begin("span.packets")
	for i, n := range c.f.nodes {
		start := time.Now()
		c.rec.begin("dataplane.process")
		for _, p := range pkts {
			n.sw.Process(p)
		}
		c.rec.end(len(pkts))
		c.rec.begin("dataplane.drain_reports")
		rs := n.sw.DrainReports()
		c.rec.end(len(rs))
		c.rec.begin("telemetry.export")
		n.exp.Export(rs)
		c.rec.end(len(rs))
		c.rec.begin("telemetry.flush")
		if err := n.exp.Flush(); err != nil {
			c.fail("flush %s: %v", n.name, err)
		}
		c.rec.end(0)
		if sample {
			c.s.addPass(kind, i, float64(time.Since(start).Nanoseconds()), len(pkts), max(1, c.d.passes))
		}
	}
	c.rec.end(len(pkts) * len(c.f.nodes))
	c.attempted += len(pkts) * len(c.f.nodes)
}

// alertProbe is step 2: a burst that crosses q1's threshold for a
// victim no one has seen, timed from the crossing packet entering the
// first switch to the alert reaching the subscriber.
func (c *cycler) alertProbe() {
	n := c.f.nodes[0]
	victim := c.freshVictim()
	c.probesThis = append(c.probesThis, uint64(victim))
	ts := c.cycle*uint64(window) + uint64(window)*95/100
	for _, p := range c.probePkts {
		p.IP.Dst, p.TS, p.SP = victim, ts, nil
	}
	last := len(c.probePkts) - 1
	for _, p := range c.probePkts[:last] {
		n.sw.Process(p)
	}
	id := alertID{c.f.orch.QID(c.anchor), uint64(victim)}

	start := time.Now()
	c.rec.begin("span.alert.export")
	n.sw.Process(c.probePkts[last])
	n.exp.Export(n.sw.DrainReports())
	c.rec.end(1)
	c.rec.begin("span.alert.wait")
	ok := c.await(func() bool { return c.alerts[id] })
	c.rec.end(0)
	el := time.Since(start)

	c.attempted++
	if !ok {
		c.fail("no alert for probe victim %#x within %v", victim, waitLimit)
		return
	}
	if c.sampling {
		c.s.alertUs.add(float64(el.Nanoseconds()) / 1e3)
	}
}

// roll is step 3, exactly cmd/newton-agent's roll on every switch:
// export the ending epoch's banks, then roll the window. It ends when
// every contributing switch's snapshot has merged and the anchor
// query's latest settled epoch is the one just rolled: one sample of
// the kind's settle series, when the caller names one.
func (c *cycler) roll(into *series) (uint32, bool) {
	epoch := c.f.nodes[0].eng.Layout().Epoch()
	var want []string
	for _, n := range c.f.nodes {
		if n.eng.InstalledCount() > 0 {
			want = append(want, n.name)
		}
	}
	start := time.Now()
	for _, n := range c.f.nodes {
		c.rec.begin("span.roll.export_epoch")
		if err := n.exp.ExportEpoch(n.eng); err != nil {
			c.fail("export epoch %s: %v", n.name, err)
		}
		c.rec.end(min(1, n.eng.InstalledCount())) // 0: nothing installed, nothing sent
		c.rec.begin("span.roll.roll_epoch")
		n.eng.RollEpoch()
		c.rec.end(1)
	}
	c.rec.begin("span.roll.settle_wait")
	qid := c.f.orch.QID(c.anchor)
	ok := c.await(func() bool {
		got := c.merged[epoch]
		for _, name := range want {
			if !got[name] {
				return false
			}
		}
		e, settled := c.f.svc.LatestSettledEpoch(qid)
		return settled && e == epoch
	})
	c.rec.end(len(want))
	el := time.Since(start)
	delete(c.merged, epoch)

	c.attempted++
	if !ok {
		c.fail("epoch %d not settled within %v", epoch, waitLimit)
		return epoch, false
	}
	if partial, missing, _ := c.f.svc.EpochStatus(qid, epoch); partial {
		c.fail("epoch %d settled but partial (missing %v)", epoch, missing)
	}
	if into != nil {
		into.add(float64(el.Nanoseconds()) / 1e6)
	}
	return epoch, true
}

// reads is step 4: operator answers on the settled epoch, each one an
// Estimate plus an ObservedAccuracy for the anchor query, checked
// against what the exact reference says the merged sketch must hold.
func (c *cycler) reads(epoch uint32) {
	qid := c.f.orch.QID(c.anchor)
	scale := uint64(c.d.thresholds[0])
	want := c.predictEstimates()
	wantTotal := uint64(c.anchorHome)*uint64(c.totalOf("q1")) +
		uint64(len(c.probesThis)*len(c.probePkts))
	var keys fields.Vector
	c.rec.begin("span.reads")
	for i := 0; i < c.d.reads; i++ {
		k := c.l.sampled[c.readSeq%len(c.l.sampled)]
		c.readSeq++
		keys.Set(fields.DstIP, k)
		start := time.Now()
		c.rec.begin("telemetry.estimate")
		est, ok := c.f.svc.Estimate(qid, 0, epoch, &keys)
		c.rec.end(1)
		c.rec.begin("telemetry.observed_accuracy")
		qa, ok2 := c.f.svc.ObservedAccuracy(qid, epoch, scale)
		c.rec.end(1)
		el := time.Since(start)
		if c.sampling {
			c.s.readUs.add(float64(el.Nanoseconds()) / 1e3)
		}

		c.attempted++
		switch {
		case !ok || !ok2:
			c.fail("read of key %#x at epoch %d not ok", k, epoch)
		case est != want[k]:
			c.fail("estimate of key %#x = %d, reference says %d", k, est, want[k])
		case qa.StreamTotal != wantTotal:
			c.fail("stream total %d, reference says %d", qa.StreamTotal, wantTotal)
		case qa.Partial || qa.Transition:
			c.fail("accuracy of settled epoch %d reads partial", epoch)
		}
	}
	c.rec.end(c.d.reads)
}

// totalOf is how many packets of the set a catalog query's first reduce
// counts: the sum of the reference's per-key finals.
func (c *cycler) totalOf(cat string) int64 {
	var sum int64
	for _, v := range c.l.exact[cat].counts {
		sum += v
	}
	return sum
}

// cmsRow is one Count-Min row of the anchor query: its hash geometry
// (read off the first switch's bank snapshot, so it is whatever the
// compiler chose) and what the exact reference says one switch's copy
// holds after a pass over the packet set.
type cmsRow struct {
	geom modules.BankSnapshot
	base map[uint32]uint64 // slot -> sum of the exact counts of the keys hashing there
}

func (r *cmsRow) slot(key uint64) uint32 {
	var v fields.Vector
	v.Set(fields.DstIP, key)
	return r.geom.Slot(r.geom.KeyMask.Bytes(&v, nil))
}

// learnRows reads the anchor's row geometry and fills in the
// reference's per-slot counts.
func (c *cycler) learnRows() {
	c.rows = nil
	qid := c.f.orch.QID(c.anchor)
	for _, b := range c.f.nodes[0].eng.SnapshotBanks() {
		if b.QueryID != qid || b.Branch != 0 || b.Kind != modules.BankCMSRow {
			continue
		}
		b.Values = nil
		r := cmsRow{geom: b, base: map[uint32]uint64{}}
		for k, n := range c.l.exact["q1"].counts {
			r.base[r.slot(k)] += uint64(n)
		}
		c.rows = append(c.rows, r)
	}
}

// freshVictim picks the next alert-probe victim: an address whose slot
// is empty in at least one row, so its count starts at zero and passes
// through the crossing value exactly. (A switch reports a key only at
// the exact crossing; a victim that starts above it, by colliding with
// heavy keys in every row, is legitimately never reported.)
func (c *cycler) freshVictim() uint32 {
	for {
		c.probeSeq++
		victim := 0xE000_0000 | c.probeSeq
		for i := range c.rows {
			r := &c.rows[i]
			s := r.slot(uint64(victim))
			free := r.base[s] == 0
			for _, pv := range c.probesThis {
				free = free && r.slot(pv) != s
			}
			if free {
				return victim
			}
		}
		if len(c.rows) == 0 {
			return victim
		}
	}
}

// predictEstimates computes, from the exact per-key counts and the
// rows' own hash geometry, the Count-Min estimate the analyzer must
// return for each sampled key: per row the sum of the exact counts of
// every key sharing the slot (times the switches that each saw the
// whole set, plus this cycle's alert-probe bursts), then the minimum
// over rows. Collisions are predicted, not tolerated, so the check is
// exact at any width.
func (c *cycler) predictEstimates() map[uint64]uint64 {
	out := map[uint64]uint64{}
	for i := range c.rows {
		r := &c.rows[i]
		for _, k := range c.l.sampled {
			s := r.slot(k)
			want := r.base[s] * uint64(c.anchorHome)
			for _, pv := range c.probesThis {
				if r.slot(pv) == s {
					want += uint64(len(c.probePkts))
				}
			}
			if got, seen := out[k]; !seen || want < got {
				out[k] = want
			}
		}
	}
	return out
}

// converge applies whatever was just submitted and checks the outcome:
// no error, nothing rejected, and the recorded deployment equal to the
// plan.
func (c *cycler) converge(kind string, start time.Time) {
	c.rec.begin("span.intent.plan")
	plan, diff, err := c.f.orch.Plan()
	c.rec.end(1)
	if err == nil {
		c.rec.begin("span.intent.apply")
		err = c.f.orch.Apply(plan, diff)
		c.rec.end(len(diff.Deltas))
	}
	el := time.Since(start)
	c.attempted++
	if err != nil {
		c.fail("%s: converge: %v", kind, err)
		return
	}
	if c.sampling {
		c.s.deployMs[kind].add(float64(el.Nanoseconds()) / 1e6)
	}
	c.refreshDeployed()
	dep := c.f.orch.Deployed()
	for _, qp := range plan.Queries {
		name := qp.Intent.Query.Name
		got, ok := dep[name]
		switch {
		case !qp.Admitted:
			c.fail("%s: intent %s rejected: %s", kind, name, qp.Reason)
		case !ok || got.Width != qp.Width || got.Single != qp.Single || got.M != qp.M:
			c.fail("%s: deployed %s differs from its plan", kind, name)
		}
		delete(dep, name)
	}
	for name := range dep {
		c.fail("%s: %s deployed but not planned", kind, name)
	}
}

// firstResult ends an intent probe, after the cycle's own packets,
// alert probes and roll: it waits — rolling again at once if the epoch
// just rolled was a transition — until every query the change produces
// has a settled epoch no older than the deploy. The caller opened
// span.intent.first_result_wait right after the deploy, so the span
// encloses those steps: they are the wait.
func (c *cycler) firstResult(op *probeOp, start time.Time, deployEpoch uint32) {
	settled := func() bool {
		for _, name := range op.result {
			e, ok := c.f.svc.LatestSettledEpoch(c.f.orch.QID(name))
			if !ok || e < deployEpoch {
				return false
			}
		}
		return true
	}
	ok := settled()
	for extra := 0; !ok && extra < 4; extra++ {
		if _, rolled := c.roll(nil); !rolled {
			break
		}
		ok = settled()
	}
	c.rec.end(len(op.result))
	el := time.Since(start)
	c.attempted++
	if !ok {
		c.fail("%s: no settled result for %v", op.kind, op.result)
		return
	}
	if c.sampling {
		c.s.intentMs[op.kind].add(float64(el.Nanoseconds()) / 1e6)
	}
}

// monotone marks the catalog queries whose data-plane value can only
// be pushed up by sketch error (one branch, counts only), so an
// injected victim must alert. The signed merges (q6, q8, q9) subtract a
// Count-Min row, and an overcount there legitimately vetoes a victim.
var monotone = map[string]bool{"q1": true, "q2": true, "q3": true, "q4": true, "q5": true}

// checkAlerts closes the cycle's window. Every injected victim the
// reference agrees is over threshold must be caught by every deployed
// monotone query it is the truth for: alerted, or — a switch reports
// only at the exact crossing value, and colliding keys can carry a
// count past it between two of the victim's packets — over threshold
// in the analyzer's merged banks at the settled epoch. And alerts
// of those queries that nobody can explain must stay within the
// sketch's collision allowance. (The signed merges alert on benign keys
// as a matter of course at this load: three hosts sharing both slots,
// their SYNs seen and their data not yet, read as one host with three
// connections and no bytes.) A partitioned query that a drain has left without one of
// its partitions is not expected to catch anything.
func (c *cycler) checkAlerts(epoch uint32) {
	probes := map[uint64]bool{}
	for _, pv := range c.probesThis {
		probes[pv] = true
	}
	for qid, name := range c.nameOf {
		cat := catalogOf(name)
		if !monotone[cat] || !c.whole[name] {
			continue
		}
		th := uint64(c.d.thresholds[cat[1]-'1'])
		for k := range c.l.victims[cat] {
			if !c.l.exact[cat].flagged[k] {
				continue
			}
			c.attempted++
			if c.alerts[alertID{qid, k}] {
				continue
			}
			var v fields.Vector
			v.Set(fields.SrcIP, k)
			v.Set(fields.DstIP, k)
			if est, ok := c.f.svc.Estimate(qid, 0, epoch, &v); !ok || est <= th {
				c.fail("%s: victim %#x neither alerted nor over threshold at the analyzer (estimate %d)", name, k, est)
			}
		}
	}
	unexplained := 0
	var example string
	for id := range c.alerts {
		name, ok := c.nameOf[id.qid]
		if !ok {
			continue // alert of a query withdrawn this cycle
		}
		cat := catalogOf(name)
		if monotone[cat] && !c.l.victims[cat][id.key] && !c.l.exact[cat].flagged[id.key] && !probes[id.key] {
			unexplained++
			example = fmt.Sprintf("%s on %#x", name, id.key)
		}
	}
	c.attempted++
	if unexplained > alertSlack {
		c.fail("%d alerts for keys no attack or reference explains, such as %s", unexplained, example)
	}
}

// counts reads the two per-cycle counters: telemetry bytes the analyzer
// has read off all streams, and process-wide mallocs.
func (c *cycler) counts() (wire, mallocs uint64) {
	for _, n := range c.f.nodes {
		if w, ok := c.f.svc.AgentWire(n.name); ok {
			wire += w.Bytes
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return wire, ms.Mallocs
}

// probePackets is how much of the packet set the probe cycles of a
// workload with quiet cycles process before they roll: what a first
// result needs, not a second packet benchmark inside intent_ms.
const probePackets = 1024

// runCycle is the one loop all four workloads share; op is the intent
// probe this cycle carries, nil for a quiet cycle.
//
// On a workload without quiet cycles the probe cycle is the whole
// cycle: there the packet path is meant to pay for the churn. On one
// with quiet cycles the steady-state steps are sampled in those, and a
// probe cycle carries only the intent's journey: the change, the first
// probePackets of the set, the roll, the first result, the withdraw.
// (The roll is issued at once either way, so how many packets go before
// it is the benchmark's choice, not the program's cost.)
func (c *cycler) runCycle(op *probeOp) {
	kind, full := quietKind, true
	if op != nil {
		kind, full = op.kind, !c.d.quiet
	}
	sample := c.sampling && full
	var wire0, mallocs0, pkts0, misses0 uint64
	if sample {
		wire0, mallocs0 = c.counts()
		pkts0, misses0 = c.dispatchCounts()
	}
	c.cycle++
	c.rec.setTrace(c.d.name, c.cycle)
	c.l.stamp(c.cycle, c.d)

	var opStart time.Time
	var deployEpoch uint32
	if op != nil {
		deployEpoch = c.f.nodes[0].eng.Layout().Epoch()
		opStart = time.Now()
		op.apply(c)
		c.converge(op.kind, opStart)
		if len(op.result) > 0 {
			c.rec.begin("span.intent.first_result_wait")
		}
	}

	pkts := c.l.pkts
	if !full {
		pkts = pkts[:min(probePackets, len(pkts))]
	}
	c.packets(pkts, kind, sample)
	if full {
		for i := 0; i < c.d.alerts; i++ {
			c.alertProbe()
		}
	}
	var settle *series
	if sample {
		settle = c.s.settleMs[kind]
	}
	epoch, ok := c.roll(settle)
	if op != nil && len(op.result) > 0 {
		c.firstResult(op, opStart, deployEpoch)
	}
	if ok && full {
		c.reads(epoch)
	}
	// The controller's collect keeps the analyzer's pending-alert list
	// from growing without bound, as a deployment's poll loop would.
	if _, err := c.f.ctl.Collect(); err != nil {
		c.fail("collect: %v", err)
	}
	if ok && full {
		c.checkAlerts(epoch)
	}
	clear(c.alerts)
	c.probesThis = c.probesThis[:0]
	if sample {
		wire1, mallocs1 := c.counts()
		pkts1, misses1 := c.dispatchCounts()
		c.s.wireBytes = append(c.s.wireBytes, float64(wire1-wire0))
		c.s.allocs = append(c.s.allocs, float64(mallocs1-mallocs0))
		c.s.pkts, c.s.misses = c.s.pkts+pkts1-pkts0, c.s.misses+misses1-misses0
	}
	if op != nil && op.undo != nil {
		start := time.Now()
		op.undo(c)
		c.converge("withdraw", start)
	}
}

// nextOp is the next intent probe of the rotation.
func (c *cycler) nextOp() *probeOp {
	op := &c.d.ops[c.opNext%len(c.d.ops)]
	c.opNext++
	return op
}

// qidBudget ends a run early. The controller never reuses a qid and the
// result-snapshot header carries twelve bits of it, so a partitioned
// query deployed as qid 4096 or later silently stops reporting (a
// defect of the program's, found by this benchmark's churn workload
// running long enough). A run that has used this many qids stops there.
const qidBudget = 3500

// warmUp runs the discarded cycles: retention, report buffers and caches
// reach steady size, and every probe kind runs once.
func (c *cycler) warmUp() {
	c.learnRows()
	c.sampling = false
	for i := 0; i < c.d.keepEpochs+2; i++ {
		c.runCycle(nil)
	}
	for range c.d.ops {
		c.runCycle(c.nextOp())
	}
}

// measure runs whole rounds for at least the given time, sampling into
// c.s; with untilFull it goes on past that time while a series is short
// of its minimum, up to three times over (a series still short then is
// reported as an error by whoever reduces it). A round is a quiet block
// and a probe block, each a tenth of the ms-scale minimum (25 cycles on
// the gated run). A quiet block has no intent probes: after one
// discarded cycle that re-warms the dispatch cache, its cycles sample
// the packet, alert, settle and read series and the per-cycle counts. A
// probe block changes an intent every cycle and samples deploy_ms and
// intent_ms. Alternating spreads every series over the whole run, so a
// neighbour that is busy for ten seconds cannot sit on all of one
// metric's samples. A workload without quiet blocks is all probe, and
// every series is sampled throughout, by probe kind.
func (c *cycler) measure(d time.Duration, untilFull bool) {
	block := max(3, c.s.m.ms/10) // three at least: a smoke run's rounds must not be all re-warming
	quietBlock, probeBlock := block, block*len(c.d.ops)
	if p := max(1, c.d.passes); quietBlock%p != 0 {
		quietBlock += p - quietBlock%p // whole packet samples
	}
	for start := time.Now(); c.maxQID < qidBudget; {
		if el := time.Since(start); el >= 3*d || (el >= d && (!untilFull || c.s.full())) {
			break
		}
		if c.d.quiet {
			c.sampling = false
			c.runCycle(nil) // re-warm after the last block's withdraw
			c.sampling = true
			c.s.resetPasses()
			for i := 0; i < quietBlock; i++ {
				c.runCycle(nil)
			}
		}
		c.sampling = true
		for i := 0; i < probeBlock; i++ {
			c.runCycle(c.nextOp())
		}
	}
}

// dispatchCounts sums the engines' packet and dispatch-miss counters.
func (c *cycler) dispatchCounts() (pkts, misses uint64) {
	for _, n := range c.f.nodes {
		p, m, _ := n.eng.Counters()
		pkts, misses = pkts+p, misses+m
	}
	return pkts, misses
}
