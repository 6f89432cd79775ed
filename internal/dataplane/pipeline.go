package dataplane

import (
	"sync/atomic"

	"github.com/newton-net/newton/internal/fields"
	"github.com/newton-net/newton/internal/packet"
)

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
// Each delivery lane of a switch owns one, reused packet after packet.
type Context struct {
	PHV fields.PHV
	Pkt *packet.Packet

	// OutSP is the result-snapshot header the program wants on the
	// packet when it leaves this switch: nil strips any inbound SP (the
	// query finished or stopped here), non-nil carries state to the next
	// partition (§5.1). The deparser applies it after the program runs.
	OutSP *packet.SPHeader

	// Lane is the index of the switch lane (SetLanes) running the packet.
	// The delivery contract is: at any instant, at most one goroutine
	// drives packets through a given lane, and all packets of one flow use
	// the same lane within an epoch (netsim shards batches by flow hash
	// and joins workers at window barriers). Under that discipline every
	// per-lane structure — the switch's counters and report buffer, the
	// engine's flow table and hash memos — is single-writer and needs no
	// locks. Process runs lane 0.
	Lane int

	// seq marks the packet as sequential: exactly one goroutine is
	// delivering packets, so register transactions may skip their atomic
	// (LOCK-prefixed) forms. Results are identical either way — the
	// atomic forms are linearizable and the sequential forms never race
	// by construction.
	seq bool

	sw *Switch
	ln *lane
}

// Sequential reports whether the context belongs to a single-goroutine
// delivery path (see the seq field).
func (c *Context) Sequential() bool { return c.seq }

// Mirror emits a monitoring report into the lane's buffer, where the
// switch's drains find it. A buffer that DrainReports handed off
// restarts at the length it was drained at.
func (c *Context) Mirror(r Report) {
	r.SwitchID = c.sw.ID
	r.TS = c.Pkt.TS
	ln := c.ln
	if ln.reports == nil {
		ln.reports = make([]Report, 0, max(ln.drained, 1))
	}
	ln.reports = append(ln.reports, r)
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

// Counters tracks a switch's packet counters. Each delivery lane keeps
// its own; Switch.Counters sums the lanes.
type Counters struct {
	Rx, Tx, Dropped uint64
}

// lane is one delivery lane's state: its counters, its report buffer and
// the context its packets run in. One goroutine drives a lane at a time
// (the Context.Lane discipline), so nothing here takes a lock. The
// counters are written with store-after-load atomics: plain MOVs on
// x86-64 — no LOCK prefix — yet race-detector-clean and torn-read-free
// for concurrent scrapes.
type lane struct {
	rx, tx, dropped uint64

	reports []Report
	drained int // how many the last DrainReports handed off (lane 0's buffer; the others keep theirs)

	ctx Context

	_ [64]byte // keeps the next lane's counters off this lane's cachelines
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
	ID string

	// Forwarding is an LPM table on the destination address. Its entry
	// count drives the Figure 10 interruption experiment.
	Forwarding *Table

	// Monitor is the installed monitoring program (nil = none).
	Monitor Program

	up bool

	// lanes holds one block per delivery lane; lanes[0] always exists and
	// serves Process. Keeping the contexts here stops a Context (and its
	// large PHV) escaping to the heap on every packet.
	lanes []*lane
}

// NewSwitch builds a switch with one delivery lane. The stage count and
// capacity are unused: the monitoring geometry is the modules layout's.
// They stay only because benchmark/ passes them.
func NewSwitch(id string, _ int, _ Resources) *Switch {
	sw := &Switch{
		ID:         id,
		Forwarding: NewTable(id+"/ipv4_lpm", MatchLPM, 1, 1<<20),
		up:         true,
	}
	sw.SetLanes(1)
	return sw
}

// SetLanes gives the switch at least n delivery lanes, each with its own
// counters, report buffer and context. Call it before parallel delivery
// starts; counts and reports already on a lane are kept.
func (sw *Switch) SetLanes(n int) {
	for i := len(sw.lanes); i < n; i++ {
		ln := &lane{}
		ln.ctx = Context{Lane: i, sw: sw, ln: ln}
		sw.lanes = append(sw.lanes, ln)
	}
}

// SetUp changes the switch's liveness (the reboot model's lever).
func (sw *Switch) SetUp(up bool) { sw.up = up }

// Counters returns the packet counters summed across delivery lanes.
func (sw *Switch) Counters() Counters {
	var c Counters
	for _, ln := range sw.lanes {
		c.Rx += atomic.LoadUint64(&ln.rx)
		c.Tx += atomic.LoadUint64(&ln.tx)
		c.Dropped += atomic.LoadUint64(&ln.dropped)
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

// Process runs one packet through the switch on lane 0: parse, monitor,
// forward. It returns the egress port (-1 when dropped) and whether the
// packet was forwarded. Reports generated by the monitor are buffered on
// the switch until DrainReports. Process is for a lone deliverer: no
// other packet may be in the switch meanwhile, so register transactions
// take their sequential forms.
func (sw *Switch) Process(pkt *packet.Packet) (egress int, forwarded bool) {
	return sw.process(pkt, sw.lanes[0], true)
}

// ProcessLane is Process on the given delivery lane, for workers that
// drive the same switch concurrently, each on its own lane (the
// Context.Lane discipline). A lane at or above the SetLanes count
// panics. State access stays exact: tables are read through immutable
// snapshots and register ALU transactions are linearizable. A switch
// with one lane has one deliverer, so it keeps the sequential forms.
func (sw *Switch) ProcessLane(pkt *packet.Packet, lane int) (egress int, forwarded bool) {
	return sw.process(pkt, sw.lanes[lane], len(sw.lanes) == 1)
}

func (sw *Switch) process(pkt *packet.Packet, ln *lane, seq bool) (egress int, forwarded bool) {
	laneBump(&ln.rx)
	if !sw.up {
		laneBump(&ln.dropped)
		return -1, false
	}

	if sw.Monitor != nil {
		// Surgical reset instead of a whole-struct clear: KeyBuf is
		// append-only scratch (never read past what the current packet
		// wrote), so re-zeroing its 96 bytes per packet is wasted work.
		// Everything the program can read before writing is reset here.
		ctx := &ln.ctx
		ctx.Pkt = pkt
		ctx.seq = seq
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
		laneBump(&ln.dropped)
		return -1, false
	}
	switch a := rule.Action.(type) {
	case ForwardAction:
		laneBump(&ln.tx)
		return a.Port, true
	default:
		laneBump(&ln.dropped)
		return -1, false
	}
}

// DrainReports returns and clears the buffered monitoring reports of
// every lane, lane 0 first, each lane in mirror order. The returned
// slice is handed off to the caller: lane 0's next report starts a new
// buffer, sized for as many as this drain returned, so a steady report
// rate costs one allocation a drain. Loops that need none should prefer
// DrainReportsAppend, which reuses the switch's backing buffers.
func (sw *Switch) DrainReports() []Report {
	l0 := sw.lanes[0]
	r := l0.reports
	for _, ln := range sw.lanes[1:] {
		r = append(r, ln.reports...)
		ln.reports = ln.reports[:0]
	}
	l0.reports, l0.drained = nil, len(r)
	return r
}

// DrainReportsAppend appends the buffered reports of every lane, lane 0
// first, to dst and returns the extended slice, keeping the lanes'
// backing buffers for reuse — the zero-allocation drain of steady-state
// delivery loops.
func (sw *Switch) DrainReportsAppend(dst []Report) []Report {
	for _, ln := range sw.lanes {
		dst = append(dst, ln.reports...)
		ln.reports = ln.reports[:0]
	}
	return dst
}

// PendingReports returns the number of buffered reports without draining.
func (sw *Switch) PendingReports() int {
	n := 0
	for _, ln := range sw.lanes {
		n += len(ln.reports)
	}
	return n
}
