package dataplane

import (
	"fmt"
	"sync/atomic"

	"github.com/newton-net/newton/internal/fields"
	"github.com/newton-net/newton/internal/packet"
)

// Stage is one physical match-action stage: the tables and register
// banks placed there plus the resource bookkeeping that enforces the
// stage's capacity.
type Stage struct {
	Index    int
	Capacity Resources

	used      Resources
	tables    []*Table
	banks     []*RegisterBank
	placement map[string]Resources
}

// Place reserves resources in the stage for a named component, failing
// if the stage cannot accommodate it. The optional table/bank are
// registered with the stage for introspection.
func (s *Stage) Place(name string, consumes Resources, t *Table, rb *RegisterBank) error {
	want := s.used
	want.Add(consumes)
	if !want.Fits(s.Capacity) {
		return fmt.Errorf("dataplane: stage %d cannot accommodate %s (used %v + %v > cap %v)",
			s.Index, name, s.used, consumes, s.Capacity)
	}
	s.used = want
	if s.placement == nil {
		s.placement = make(map[string]Resources)
	}
	s.placement[name] = consumes
	if t != nil {
		s.tables = append(s.tables, t)
	}
	if rb != nil {
		s.banks = append(s.banks, rb)
	}
	return nil
}

// Used returns the stage's consumed resource vector.
func (s *Stage) Used() Resources { return s.used }

// Tables returns the tables placed in the stage.
func (s *Stage) Tables() []*Table { return s.tables }

// Banks returns the register banks placed in the stage.
func (s *Stage) Banks() []*RegisterBank { return s.banks }

// Pipeline is an ordered sequence of physical stages.
type Pipeline struct {
	Stages []*Stage
}

// NewPipeline builds a pipeline of n stages with the given per-stage
// capacity.
func NewPipeline(n int, capacity Resources) *Pipeline {
	if n <= 0 {
		panic("dataplane: pipeline needs at least one stage")
	}
	p := &Pipeline{Stages: make([]*Stage, n)}
	for i := range p.Stages {
		p.Stages[i] = &Stage{Index: i, Capacity: capacity}
	}
	return p
}

// NextEpoch advances the window epoch of every register bank, and with
// it every array allocated from one.
func (p *Pipeline) NextEpoch() {
	for _, s := range p.Stages {
		for _, rb := range s.banks {
			rb.NextEpoch()
		}
	}
}

// TotalUsed sums resource usage across stages.
func (p *Pipeline) TotalUsed() Resources {
	var sum Resources
	for _, s := range p.Stages {
		sum.Add(s.Used())
	}
	return sum
}

// Report is one monitoring message mirrored to the software analyzer: the
// operation keys the query selected, the state and global results, and
// provenance.
type Report struct {
	SwitchID string
	QueryID  int
	TS       uint64
	Keys     fields.Vector
	KeyMask  fields.Mask
	State    uint64
	Global   uint64
}

// Context is the per-packet execution context handed to the monitoring
// program: the PHV, the packet itself, and the switch services the
// program may invoke (mirroring a report, consulting the SP header).
type Context struct {
	PHV fields.PHV
	Pkt *packet.Packet

	// OutSP is the result-snapshot header the program wants on the
	// packet when it leaves this switch: nil strips any inbound SP (the
	// query finished or stopped here), non-nil carries state to the next
	// partition (§5.1). The deparser applies it after the program runs.
	OutSP *packet.SPHeader

	// Lane is the delivery worker's index. The sharded delivery contract
	// is: at any instant, at most one goroutine drives packets with a
	// given lane, and all packets of one flow use the same lane within an
	// epoch (netsim shards batches by flow hash and joins workers at
	// window barriers). Under that discipline every per-lane structure —
	// switch counters, the engine's flow table and hash memos, report
	// sinks — is single-writer and needs no locks. Sequential delivery
	// uses lane 0.
	Lane int

	// sink, when non-nil, receives mirrored reports instead of the
	// switch's shared buffer — the per-worker report buffers of parallel
	// batch delivery.
	sink *[]Report

	// seq marks the context as sequential: exactly one goroutine is
	// delivering packets, so register transactions may skip their atomic
	// (LOCK-prefixed) forms. Batch workers leave it false. Results are
	// identical either way — the atomic forms are linearizable and the
	// sequential forms never race by construction.
	seq bool

	sw *Switch
}

// Sequential reports whether the context belongs to a single-goroutine
// delivery path (see the seq field).
func (c *Context) Sequential() bool { return c.seq }

// Mirror emits a monitoring report to the context's report sink (the
// switch's buffer, or the caller-owned buffer of a batch worker).
func (c *Context) Mirror(r Report) {
	r.SwitchID = c.sw.ID
	r.TS = c.Pkt.TS
	if c.sink != nil {
		*c.sink = append(*c.sink, r)
		return
	}
	c.sw.reports = append(c.sw.reports, r)
}

// Program is the monitoring logic installed in the pipeline — for Newton
// the module engine; baselines install their own export disciplines.
type Program interface {
	// Execute runs the program over one packet's context.
	Execute(ctx *Context)
}

// DropAction and ForwardAction are the forwarding-table actions.
type (
	// ForwardAction sends the packet out Port.
	ForwardAction struct{ Port int }
	// DropAction discards the packet.
	DropAction struct{}
)

// ActionName implements Action.
func (ForwardAction) ActionName() string { return "forward" }

// ActionName implements Action.
func (DropAction) ActionName() string { return "drop" }

// Counters tracks a switch's packet counters. The switch keeps one
// padded copy per delivery lane so parallel batch workers never bounce a
// shared cacheline; Switch.Counters sums the lanes.
type Counters struct {
	Rx, Tx, Dropped uint64
}

// laneCounters is one lane's private counter block, padded out to a
// cacheline so adjacent lanes never false-share. Each lane is written by
// exactly one goroutine (the Context.Lane discipline) with
// store-after-load atomics: plain MOVs on x86-64 — no LOCK prefix — yet
// race-detector-clean and torn-read-free for concurrent scrapes.
type laneCounters struct {
	rx, tx, dropped uint64
	_               [5]uint64
}

// laneBump increments a single-writer counter without a LOCK prefix
// while keeping concurrent atomic readers exact.
func laneBump(p *uint64) {
	atomic.StoreUint64(p, atomic.LoadUint64(p)+1)
}

// Switch models one programmable switch: an L3 forwarding table (the
// "normal packet forwarding" Newton must not disturb), an optional
// monitoring program, mirroring, and liveness (the Sonata baseline takes
// the switch down to reload its P4 program; Newton never does).
type Switch struct {
	ID       string
	Pipeline *Pipeline

	// Forwarding is an LPM table on the destination address. Its entry
	// count drives the Figure 10 interruption experiment.
	Forwarding *Table

	// Monitor is the installed monitoring program (nil = none).
	Monitor Program

	up      bool
	lanes   []laneCounters
	reports []Report

	// ctx is the reusable per-packet context of the sequential Process
	// path; keeping it on the switch stops the Context (and its large
	// PHV) escaping to the heap on every packet. Parallel delivery
	// supplies caller-owned contexts via ProcessCtx instead.
	ctx Context
}

// NewSwitch builds a switch with the given pipeline geometry.
func NewSwitch(id string, stages int, capacity Resources) *Switch {
	return &Switch{
		ID:         id,
		Pipeline:   NewPipeline(stages, capacity),
		Forwarding: NewTable(id+"/ipv4_lpm", MatchLPM, 1, 1<<20),
		up:         true,
		lanes:      make([]laneCounters, 1),
	}
}

// SetLanes sizes the switch's per-lane counter blocks for n delivery
// workers. Call it before parallel delivery starts; counts already
// accumulated are preserved. Contexts whose Lane is outside the sized
// range fall back to lane 0 (with LOCK-prefixed updates, since lane 0
// may then be shared).
func (sw *Switch) SetLanes(n int) {
	if n < 1 {
		n = 1
	}
	if n <= len(sw.lanes) {
		return
	}
	grown := make([]laneCounters, n)
	copy(grown, sw.lanes)
	sw.lanes = grown
}

// SetUp changes the switch's liveness (the reboot model's lever).
func (sw *Switch) SetUp(up bool) { sw.up = up }

// Counters returns the packet counters summed across delivery lanes.
func (sw *Switch) Counters() Counters {
	var c Counters
	for i := range sw.lanes {
		l := &sw.lanes[i]
		c.Rx += atomic.LoadUint64(&l.rx)
		c.Tx += atomic.LoadUint64(&l.tx)
		c.Dropped += atomic.LoadUint64(&l.dropped)
	}
	return c
}

// AddRoute installs a destination route: prefix/plen -> egress port.
func (sw *Switch) AddRoute(prefix uint32, plen int, port int) error {
	mask := uint64(fields.Prefix(fields.DstIP, plen))
	_, err := sw.Forwarding.AddRule(
		[]uint64{uint64(prefix) & mask}, []uint64{mask}, 0, ForwardAction{Port: port})
	return err
}

// Process runs one packet through the switch: parse, monitor, forward.
// It returns the egress port (-1 when dropped) and whether the packet
// was forwarded. Reports generated by the monitor are buffered on the
// switch until DrainReports. Process is single-caller; concurrent
// delivery must use ProcessCtx with caller-owned contexts.
func (sw *Switch) Process(pkt *packet.Packet) (egress int, forwarded bool) {
	sw.ctx.seq = true
	return sw.ProcessCtx(pkt, &sw.ctx)
}

// laneOf resolves the counter block for a context. Lanes above 0 (and
// the sequential lane 0) are single-writer by the Context.Lane contract,
// so their updates skip the LOCK prefix; a parallel caller that never
// assigned lanes lands on lane 0 in shared mode and keeps the exact
// atomic-add discipline.
func (sw *Switch) laneOf(ctx *Context) (lc *laneCounters, shared bool) {
	if l := ctx.Lane; l > 0 && l < len(sw.lanes) {
		return &sw.lanes[l], false
	}
	return &sw.lanes[0], !ctx.seq
}

// ProcessCtx is the re-entrant form of Process: the caller owns the
// execution context (and, through Context.sink, the report buffer), so
// any number of workers can push packets through the same switch
// concurrently — each worker with a distinct Context.Lane. State access
// stays exact: tables are read through immutable snapshots and register
// ALU transactions are linearizable.
func (sw *Switch) ProcessCtx(pkt *packet.Packet, ctx *Context) (egress int, forwarded bool) {
	lc, shared := sw.laneOf(ctx)
	if shared {
		atomic.AddUint64(&lc.rx, 1)
	} else {
		laneBump(&lc.rx)
	}
	if !sw.up {
		sw.drop(lc, shared)
		return -1, false
	}

	if sw.Monitor != nil {
		// Surgical reset instead of a whole-struct clear: KeyBuf is
		// append-only scratch (never read past what the current packet
		// wrote), so re-zeroing its 96 bytes per packet is wasted work.
		// Everything the program can read before writing is reset here.
		ctx.Pkt = pkt
		ctx.sw = sw
		ctx.OutSP = nil
		pkt.FieldsInto(&ctx.PHV.Fields)
		ctx.PHV.Sets[0] = fields.MetadataSet{}
		ctx.PHV.Sets[1] = fields.MetadataSet{}
		ctx.PHV.GlobalResult = 0
		ctx.PHV.QueryID = -1
		ctx.PHV.Step = 0
		ctx.PHV.Stopped = false
		sw.Monitor.Execute(ctx)
		pkt.SP = ctx.OutSP // deparser: attach, forward, or strip the snapshot
	}

	rule := sw.Forwarding.Lookup(uint64(pkt.IP.Dst))
	if rule == nil {
		sw.drop(lc, shared)
		return -1, false
	}
	switch a := rule.Action.(type) {
	case ForwardAction:
		if shared {
			atomic.AddUint64(&lc.tx, 1)
		} else {
			laneBump(&lc.tx)
		}
		return a.Port, true
	default:
		sw.drop(lc, shared)
		return -1, false
	}
}

func (sw *Switch) drop(lc *laneCounters, shared bool) {
	if shared {
		atomic.AddUint64(&lc.dropped, 1)
	} else {
		laneBump(&lc.dropped)
	}
}

// NewBatchContext returns an execution context whose mirrored reports go
// to the given caller-owned buffer — one per batch worker — and whose
// lane index follows the Context.Lane single-writer discipline.
func NewBatchContext(sink *[]Report, lane int) *Context {
	return &Context{sink: sink, Lane: lane}
}

// DrainReports returns and clears the buffered monitoring reports. The
// returned slice is handed off to the caller; allocation-sensitive loops
// should prefer DrainReportsAppend, which reuses the switch's backing
// buffer.
func (sw *Switch) DrainReports() []Report {
	r := sw.reports
	sw.reports = nil
	return r
}

// DrainReportsAppend appends the buffered reports to dst and returns the
// extended slice, keeping the switch's backing buffer for reuse — the
// zero-allocation drain of steady-state delivery loops.
func (sw *Switch) DrainReportsAppend(dst []Report) []Report {
	dst = append(dst, sw.reports...)
	sw.reports = sw.reports[:0]
	return dst
}

// AddReports appends externally collected reports — typically batch
// workers' lane sinks after a window barrier — onto the switch's
// buffered queue so control-plane drains see them alongside the
// sequential path's mirrors. Single-caller, like Process.
func (sw *Switch) AddReports(rs []Report) {
	sw.reports = append(sw.reports, rs...)
}

// PendingReports returns the number of buffered reports without draining.
func (sw *Switch) PendingReports() int { return len(sw.reports) }
