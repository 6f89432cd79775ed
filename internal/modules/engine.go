package modules

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"github.com/newton-net/newton/internal/dataplane"
	"github.com/newton-net/newton/internal/fields"
	"github.com/newton-net/newton/internal/obs"
	"github.com/newton-net/newton/internal/packet"
	"github.com/newton-net/newton/internal/sketch"
)

// Typed install/remove outcomes, so control planes retrying over lossy
// channels can recognize level-triggered states ("already there",
// "already gone") without string matching.
var (
	ErrAlreadyInstalled = errors.New("already installed")
	ErrNotInstalled     = errors.New("not installed")
	// ErrQIDRange rejects a partitioned program whose qid the 12-bit
	// result-snapshot header cannot carry to its later partitions.
	ErrQIDRange = errors.New("qid does not fit the result-snapshot header")
)

// maxSnapshotQID is the largest qid packet.SPHeader carries (12 bits).
const maxSnapshotQID = 0xFFF

// Engine executes the module layout over packets. It implements
// dataplane.Program, so a Layout plus an Engine is what "loading the
// Newton P4 program" yields; every query operation afterwards is a rule
// operation against the layout.
//
// The engine is sharded into lanes (SetWorkers): each delivery worker
// owns one lane holding its flow table (dispatch.go), execution
// counters, and sampled-latency histogram, so the per-packet
// path is lock-free under the Context.Lane single-writer discipline.
// State banks are shared and linearizable — see sharding.go.
type Engine struct {
	layout *Layout

	// installed is sorted by (QID, Part), so every walk over it — epoch
	// snapshots above all — visits programs in the same order.
	installed []*Program

	// lanes holds the per-worker execution state; lanes[0] always exists
	// and serves sequential delivery. See engineLane in sharding.go.
	lanes []*engineLane

	// masks interns the K masks of the installed programs. A K op carries
	// its mask's index (KConfig.idx), and that index is where a lane's
	// per-packet scratch (keyCRCs) keeps the checksum of the packet's
	// fields under the mask, so the H modules of every chain that keys on
	// it share one CRC. Control-plane state: Install takes a reference per
	// K op, rollback drops it, and an entry with none left is the next new
	// mask's. Reusing an index is safe because a packet's chains all come
	// from one newton_init lookup and the scratch lives for one packet.
	masks []internedMask
	// initAdds and initIDs are Install's and Remove's newton_init
	// batches, kept from one write to the next.
	initAdds []*dataplane.Rule
	initIDs  []int
	// seed keys the lanes' flow-table hash (flowTable.hash).
	seed [2]uint64

	// stateBytes is what the installed queries' registers cost the host:
	// MemoryBytes of every owning op's array.
	stateBytes atomic.Int64

	// laneObs, when set via AttachObs, registers per-worker observability
	// series (sampled-latency histogram) for a lane; SetWorkers invokes
	// it for lanes created after attach.
	laneObs func(lane int) *obs.Histogram

	// onChange fires after every successful Install/Remove — how the obs
	// adapter keeps per-query resource gauges current without scraping
	// engine maps concurrently with rule updates.
	onChange func()
}

// NewEngine builds an engine over a loaded layout with one lane.
func NewEngine(l *Layout) *Engine {
	e := &Engine{
		layout: l,
		seed:   [2]uint64{rand.Uint64(), rand.Uint64()},
	}
	e.lanes = []*engineLane{newEngineLane(e.seed)}
	return e
}

// Layout returns the engine's layout.
func (e *Engine) Layout() *Layout { return e.layout }

// Installed returns the installed program for qid (its first partition,
// if partitioned), or nil.
func (e *Engine) Installed(qid int) *Program {
	if i := e.search(qid, 0); i < len(e.installed) && e.installed[i].QID == qid {
		return e.installed[i]
	}
	return nil
}

// search returns the index of the first installed program ordered at or
// after (qid, part): where that program is, or would be inserted.
func (e *Engine) search(qid, part int) int {
	return sort.Search(len(e.installed), func(i int) bool {
		p := e.installed[i]
		return p.QID > qid || p.QID == qid && p.Part >= part
	})
}

// StateHostBytes returns the bytes the installed queries' registers
// hold on the host — 4 per register. Nothing else about a state bank
// costs memory: its ArraySize is a budget.
func (e *Engine) StateHostBytes() int64 { return e.stateBytes.Load() }

// InstalledCount returns how many programs are installed.
func (e *Engine) InstalledCount() int { return len(e.installed) }

// Programs returns every installed program (all partitions). Callers
// must not mutate the programs.
func (e *Engine) Programs() []*Program { return slices.Clone(e.installed) }

// execSampleMask selects which packets get a timed Execute: 1 in 64,
// cheap enough that time.Now on the sampled packet dominates the cost.
const execSampleMask = 63

// Counters returns the engine's execution counters summed across lanes:
// packets executed, dispatch misses (packets whose classification was
// not served from the lane's flow table), and per-module-kind op
// executions.
func (e *Engine) Counters() (pkts, dispatchMisses uint64, execs [NumKinds]uint64) {
	for _, l := range e.lanes {
		pkts += atomic.LoadUint64(&l.pkts)
		dispatchMisses += atomic.LoadUint64(&l.dispatchMisses)
		for k := range execs {
			execs[k] += atomic.LoadUint64(&l.modExecs[k])
		}
	}
	return pkts, dispatchMisses, execs
}

// LaneCounters returns one lane's packet and dispatch-miss counters —
// the per-worker observability surface.
func (e *Engine) LaneCounters(lane int) (pkts, dispatchMisses uint64) {
	if lane < 0 || lane >= len(e.lanes) {
		return 0, 0
	}
	l := e.lanes[lane]
	return atomic.LoadUint64(&l.pkts), atomic.LoadUint64(&l.dispatchMisses)
}

// dispatchEvictions returns how many dispatch misses evicted a live
// flow-table entry, on one lane or (lane < 0) summed across lanes.
func (e *Engine) dispatchEvictions(lane int) (n uint64) {
	for i, l := range e.lanes {
		if lane < 0 || lane == i {
			n += atomic.LoadUint64(&l.dispatchEvictions)
		}
	}
	return n
}

// Install loads a compiled program: its charge against the layout's
// ledger, register allocations for the stateful banks, one rule per
// module op, and one newton_init entry per branch, all of them published
// in one table write. On any failure — newton_init refusing a rule set
// it cannot compile included — the partial install is rolled back,
// leaving the data plane untouched: installs are all-or-nothing so a
// failed query can never disturb running ones.
func (e *Engine) Install(p *Program) (err error) {
	at := e.search(p.QID, p.Part)
	if at < len(e.installed) && e.installed[at].QID == p.QID && e.installed[at].Part == p.Part {
		return fmt.Errorf("modules: query %d part %d %w", p.QID, p.Part, ErrAlreadyInstalled)
	}
	if p.TotalParts > 1 && p.QID > maxSnapshotQID {
		return fmt.Errorf("modules: query %d has %d partitions: %w (max %d)",
			p.QID, p.TotalParts, ErrQIDRange, maxSnapshotQID)
	}
	if err := p.wellFormed(); err != nil {
		return err
	}
	// The charge is the one check for room: past it, a module, state bank
	// or newton_fin entry is never missing.
	if err := e.layout.ledger.Charge(p); err != nil {
		return fmt.Errorf("modules: %w", err)
	}
	// Bind each K op to its interned mask, and give each owning
	// state-bank op fresh zeroed registers before any rule that reaches
	// them is published.
	for _, b := range p.Branches {
		for _, op := range b.Ops {
			switch {
			case op.Kind == ModK:
				op.K.idx = e.internMask(&op.K.Mask)
			case op.OwnsRegisters():
				ra := dataplane.NewRegisterArray(op.Width())
				op.S.array, op.S.width = ra, ra.Size()
				e.stateBytes.Add(int64(ra.MemoryBytes()))
			}
		}
	}
	defer func() {
		if err != nil {
			e.rollback(p)
		}
	}()
	// Bind cross-branch reads to the Row0 banks they target.
	for bi, b := range p.Branches {
		for _, op := range b.Ops {
			if op.Kind != ModS || !op.S.CrossRead {
				continue
			}
			target := e.findRow0(p, op.S.ReadBranch)
			if target == nil {
				return fmt.Errorf("modules: query %d branch %d reads Row0 of branch %d, which has none",
					p.QID, bi, op.S.ReadBranch)
			}
			op.S.array, op.S.width = target.array, target.width
		}
	}
	// Publish every branch's newton_init entry in one write, the last
	// step that can fail. The entries share each branch's Init arrays: an
	// installed program is never modified.
	adds := e.initAdds[:0]
	for _, b := range p.Branches {
		adds = append(adds, &dataplane.Rule{
			Values: b.Init.Values[:], Masks: b.Init.Masks[:], Action: chainAction{prog: p, branch: b}})
	}
	err = e.layout.Init.Write(nil, adds)
	for i, b := range p.Branches {
		b.initRuleID = adds[i].ID
	}
	clear(adds)
	e.initAdds = adds[:0]
	if err != nil {
		return err
	}
	e.installed = slices.Insert(e.installed, at, p)
	if e.onChange != nil {
		e.onChange()
	}
	return nil
}

// Remove uninstalls a query at runtime: its newton_init entries leave in
// one table write, then its registers are dropped and its charge is
// refunded to the ledger. Forwarding is never touched.
func (e *Engine) Remove(qid int) error {
	lo, hi := e.search(qid, 0), e.search(qid+1, 0)
	if lo == hi {
		return fmt.Errorf("modules: query %d %w", qid, ErrNotInstalled)
	}
	ids := e.initIDs[:0]
	for _, p := range e.installed[lo:hi] {
		for _, b := range p.Branches {
			ids = append(ids, b.initRuleID)
		}
	}
	e.initIDs = ids
	if err := e.layout.Init.Write(ids, nil); err != nil {
		return err
	}
	for _, p := range e.installed[lo:hi] {
		for _, b := range p.Branches {
			b.initRuleID = 0
		}
		e.rollback(p)
	}
	e.installed = slices.Delete(e.installed, lo, hi)
	if e.onChange != nil {
		e.onChange()
	}
	return nil
}

// wellFormed rejects a program no compiler emits but a control channel
// can carry: a missing branch or op, a module kind without the config
// Install and Execute reach through, or an H op naming a hash algorithm
// the first packet it hashes would panic on.
func (p *Program) wellFormed() error {
	for bi, b := range p.Branches {
		if b == nil {
			return fmt.Errorf("modules: query %d: branch %d is missing", p.QID, bi)
		}
		for oi, op := range b.Ops {
			if op == nil || !(op.Kind == ModK && op.K != nil || op.Kind == ModH && op.H != nil ||
				op.Kind == ModS && op.S != nil || op.Kind == ModR && op.R != nil) {
				return fmt.Errorf("modules: query %d branch %d: op %d is missing or lacks its module's config", p.QID, bi, oi)
			}
			if op.Kind == ModH && !op.H.Algo.Known() {
				return fmt.Errorf("modules: query %d branch %d: op %d hashes with unknown %v", p.QID, bi, oi, op.H.Algo)
			}
		}
	}
	return nil
}

// internedMask is one entry of Engine.masks.
type internedMask struct {
	mask fields.Mask
	refs int
}

// internMask takes a reference on m's entry of the mask table, making
// one (in a free entry if there is one) on first use.
func (e *Engine) internMask(m *fields.Mask) int {
	free := -1
	for i := range e.masks {
		switch im := &e.masks[i]; {
		case im.refs == 0:
			if free < 0 {
				free = i
			}
		case im.mask == *m:
			im.refs++
			return i
		}
	}
	if free < 0 {
		free = len(e.masks)
		e.masks = append(e.masks, internedMask{})
	}
	e.masks[free] = internedMask{mask: *m, refs: 1}
	return free
}

// findRow0 locates the last reduce-row-0 state bank of a branch.
func (e *Engine) findRow0(p *Program, branch int) *SConfig {
	if branch < 0 || branch >= len(p.Branches) {
		return nil
	}
	var found *SConfig
	for _, op := range p.Branches[branch].Ops {
		if op.Kind == ModS && op.S != nil && op.S.Row0 && op.S.array != nil {
			found = op.S
		}
	}
	return found
}

// rollback returns what Install took for p but its newton_init entries:
// its references on the mask table, its registers and its charge.
func (e *Engine) rollback(p *Program) {
	for _, b := range p.Branches {
		for _, op := range b.Ops {
			switch {
			case op.Kind == ModK:
				e.masks[op.K.idx].refs--
			case op.OwnsRegisters():
				e.stateBytes.Add(-int64(op.S.array.MemoryBytes()))
			}
			if op.Kind == ModS {
				op.S.array = nil
			}
		}
	}
	e.layout.ledger.Refund(p)
}

// Execute implements dataplane.Program: decode any inbound result
// snapshot, classify via newton_init, run every matching branch chain
// (partitioned programs run only at their partition cursor), and decide
// the outbound snapshot.
//
// Classification goes through the executing lane's flow table
// (dispatch.go): a 5-tuple the lane has seen at the current classifier
// version costs one set probe; any other is classified by newton_init,
// its match list interned, and one slot overwritten. Neither path
// allocates. The lane (Context.Lane) is single-writer by the delivery
// contract, so no locks anywhere on this path; all lane counters use
// store-after-load atomics, which are plain MOVs on x86-64 yet keep
// concurrent scrape reads exact.
func (e *Engine) Execute(ctx *dataplane.Context) {
	lane := e.lanes[ctx.Lane] // a lane past SetWorkers panics
	nth := bump(&lane.pkts)
	lane.keys.valid = 0
	var t0 time.Time
	timed := lane.execNS != nil && nth&execSampleMask == 0
	if timed {
		t0 = time.Now()
	}
	// Per-packet op tally, packed as four 16-bit lanes (one per module
	// kind) in a single word: the per-op cost is one shift+add, and the
	// flush is at most NumKinds counter adds per packet.
	var execs uint64

	curPart := 0
	if sp := ctx.Pkt.SP; sp != nil {
		Restore(&ctx.PHV, sp)
		curPart = int(sp.Part)
	}
	v := &ctx.PHV.Fields
	key := dispatchKey{
		v.Get(fields.SrcIP)<<32 | v.Get(fields.DstIP),
		v.Get(fields.SrcPort)<<32 | v.Get(fields.DstPort)<<16 |
			v.Get(fields.Proto)<<8 | v.Get(fields.TCPFlags)}
	ft := &lane.flows
	if version := e.layout.Init.Version(); ft.version != version {
		ft.retarget(version)
	}
	h := ft.hash(&key)
	set := ft.find(&key, h)
	if set == nil {
		misses := bump(&lane.dispatchMisses)
		vals := [6]uint64{
			v.Get(fields.SrcIP), v.Get(fields.DstIP), v.Get(fields.Proto),
			v.Get(fields.SrcPort), v.Get(fields.DstPort), v.Get(fields.TCPFlags)}
		ft.scratch = e.layout.Init.LookupAllAppend(ft.scratch[:0], vals[:])
		var evicted bool
		if set, evicted = ft.insert(&key, h, ft.scratch, misses); evicted {
			bump(&lane.dispatchEvictions)
		}
	}
	var ranPart *Program
	stopped := false
	for i := range set.chains {
		c := &set.chains[i]
		if c.prog.TotalParts > 1 {
			if c.prog.Part != curPart {
				continue
			}
			if sp := ctx.Pkt.SP; sp != nil && int(sp.QID) != c.prog.QID {
				continue
			}
			ranPart = c.prog
		}
		ctx.PHV.QueryID = c.prog.QID
		e.runBranch(ctx, c.branch, &lane.keys, &execs)
		if c.prog == ranPart {
			stopped = ctx.PHV.Stopped
		}
	}
	switch {
	case ranPart != nil && ranPart.Part+1 < ranPart.TotalParts && !stopped:
		// The inbound header was read above: the packet's own storage is free.
		ctx.OutSP = ctx.Pkt.AttachSP(resultHeader(&ctx.PHV, ranPart.QID, ranPart.Part+1))
	case ranPart != nil:
		ctx.OutSP = nil // query completed (or stopped) here: strip
	default:
		ctx.OutSP = ctx.Pkt.SP // not our partition: forward untouched
	}
	if execs != 0 {
		for k := 0; k < int(NumKinds); k++ {
			n := (execs >> (uint(k) * 16)) & 0xFFFF
			if n == 0 {
				continue
			}
			add(&lane.modExecs[k], n)
		}
	}
	if timed {
		lane.execNS.Observe(uint64(time.Since(t0)))
	}
}

// keyCRCSlots is how many interned K masks a lane keeps a per-packet
// checksum for: the valid bits are one word. The evaluation's nine
// queries intern six masks.
const keyCRCSlots = 64

// keyCRCs is a lane's per-packet scratch: crc[i] is the IEEE checksum of
// the packet's fields under interned mask i (Engine.masks) once bit i of
// valid is set. Execute clears valid per packet; the first H op keyed by
// a mask fills its word and every later one — the other rows of the same
// sketch, the other queries on the same key — reads it.
type keyCRCs struct {
	valid uint64
	crc   []uint32 // keyCRCSlots words
}

// runBranch executes one branch chain over the packet. The PHV's
// metadata sets may arrive pre-seeded from a result-snapshot header
// (cross-switch execution); chains always run front to back in stage
// order, which the composition algorithm guarantees is dependency-safe.
func (e *Engine) runBranch(ctx *dataplane.Context, b *BranchProgram, keys *keyCRCs, execs *uint64) {
	phv := &ctx.PHV
	seq := ctx.Sequential()
	phv.Stopped = false
	// mask[s] is the interned mask of the K op that wrote set s's
	// operation keys in this chain; -1 while the keys are what another
	// branch, or an earlier partition's chain, left there.
	mask := [2]int{-1, -1}
	for _, op := range b.Ops {
		if phv.Stopped {
			return
		}
		*execs += 1 << (uint(op.Kind) * 16)
		set := &phv.Sets[op.Set&1]
		switch op.Kind {
		case ModK:
			set.OpKeyMask = op.K.Mask
			op.K.Mask.ApplyInto(&phv.Fields, &set.OpKeys)
			mask[op.Set&1] = op.K.idx
		case ModH:
			e.execH(op.H, set, phv, keys, mask[op.Set&1])
		case ModS:
			e.execS(op.S, set, phv, seq)
		case ModR:
			e.execR(ctx, op.R, set, phv)
		}
	}
}

// execH hashes the set's operation keys. Under the IEEE polynomial the
// key's checksum comes from the lane's per-packet scratch whenever a K
// op of this chain selected the keys (mask is its interned index, and
// the keys are then the packet's fields under that mask, the same for
// every chain of the packet); any other H — another polynomial,
// inherited keys, a mask index past the scratch — serialises the keys
// and hashes them itself.
func (e *Engine) execH(h *HConfig, set *fields.MetadataSet, phv *fields.PHV, keys *keyCRCs, mask int) {
	if h.Direct != NoField {
		set.HashResult = set.OpKeys.Get(h.Direct)
		return
	}
	var raw uint32
	if h.Algo == sketch.CRC32IEEE && uint(mask) < uint(len(keys.crc)) {
		bit := uint64(1) << uint(mask)
		if keys.valid&bit == 0 {
			keys.crc[mask] = sketch.KeyCRC(&set.OpKeyMask, &set.OpKeys)
			keys.valid |= bit
		}
		raw = sketch.SeedCRC(keys.crc[mask], h.Seed)
	} else {
		raw = h.Algo.Sum(set.OpKeyMask.Bytes(&set.OpKeys, phv.KeyBuf[:0]), h.Seed)
	}
	if h.Range > 0 {
		raw = sketch.Fold(raw, h.Range)
	}
	set.HashResult = uint64(raw)
}

// ownerOf computes the key-sharding owner of the operation keys: a hash
// independent of the row hashes so every row of a multi-array sketch
// agrees on the owner.
func ownerOf(set *fields.MetadataSet, count uint32, phv *fields.PHV) uint32 {
	key := set.OpKeyMask.Bytes(&set.OpKeys, phv.KeyBuf[:0])
	return sketch.FNV1a.Sum(key, 0xBEEF) % count
}

func (e *Engine) execS(s *SConfig, set *fields.MetadataSet, phv *fields.PHV, seq bool) {
	if s.PassThrough {
		set.StateResult = set.HashResult
		return
	}
	if s.OwnerCount > 1 && ownerOf(set, s.OwnerCount, phv) != s.OwnerIndex {
		// Key-sharded cross-switch execution: another switch on the path
		// owns this key's state; this switch's monitoring of the packet
		// ends here and the owner reports instead.
		phv.Stopped = true
		return
	}
	if s.array == nil {
		panic("modules: state bank op executed before install (qid rule missing)")
	}
	idx := uint32(set.HashResult) % s.width
	var operand uint32
	switch s.Operand {
	case OperandConst:
		operand = s.Const
	case OperandField:
		operand = uint32(phv.Fields.Get(s.Field))
	case OperandHash:
		operand = uint32(set.HashResult)
	}
	if seq {
		set.StateResult = uint64(s.array.ExecSeq(s.ALU, idx, operand))
	} else {
		set.StateResult = uint64(s.array.Exec(s.ALU, idx, operand))
	}
}

func (e *Engine) execR(ctx *dataplane.Context, r *RConfig, set *fields.MetadataSet, phv *fields.PHV) {
	val := int64(set.StateResult)
	if r.OnGlobal {
		val = fields.GlobalSigned(phv.GlobalResult)
	}
	for _, entry := range r.Entries {
		if val < entry.Lo || val > entry.Hi {
			continue
		}
		for _, act := range entry.Actions {
			switch act.Kind {
			case RActReport:
				ctx.Mirror(dataplane.Report{
					QueryID: phv.QueryID,
					Keys:    set.OpKeys,
					KeyMask: set.OpKeyMask,
					State:   set.StateResult,
					Global:  phv.GlobalResult,
				})
			case RActStop:
				phv.Stopped = true
			case RActSetGlobal:
				phv.GlobalResult = uint64(int64(set.StateResult))
			case RActGlobalAdd:
				phv.GlobalResult = uint64(fields.GlobalSigned(phv.GlobalResult) + act.Coeff*int64(set.StateResult))
			case RActGlobalMin:
				if int64(set.StateResult) < fields.GlobalSigned(phv.GlobalResult) {
					phv.GlobalResult = uint64(int64(set.StateResult))
				}
			case RActGlobalScale:
				phv.GlobalResult = uint64(fields.GlobalSigned(phv.GlobalResult) * act.Coeff)
			}
		}
		return // first matching entry wins (ternary priority)
	}
	// No entry matched: the result process stops the query (the
	// default-deny of a threshold match).
	phv.Stopped = true
}

// Snapshot builds the result-snapshot header from the PHV for the next
// partition of a cross-switch query (§5.1). Only what downstream cannot
// rederive is carried: state results, the global result, and the
// partition cursor. 12 bytes on the wire. Execute attaches the same
// header to the packet without allocating one.
func Snapshot(phv *fields.PHV, qid int, nextPart int) *packet.SPHeader {
	h := resultHeader(phv, qid, nextPart)
	return &h
}

func resultHeader(phv *fields.PHV, qid int, nextPart int) packet.SPHeader {
	g := fields.GlobalSigned(phv.GlobalResult)
	if g > 32767 {
		g = 32767
	}
	if g < -32768 {
		g = -32768
	}
	return packet.SPHeader{
		QID:    uint16(qid) & maxSnapshotQID,
		Part:   uint8(nextPart) & 0x0F,
		State0: uint32(phv.Sets[0].StateResult),
		State1: uint32(phv.Sets[1].StateResult),
		Global: uint16(int16(g)),
	}
}

// Restore seeds a PHV's metadata from an inbound result-snapshot header
// before the next partition executes.
func Restore(phv *fields.PHV, sp *packet.SPHeader) {
	phv.Sets[0].StateResult = uint64(sp.State0)
	phv.Sets[1].StateResult = uint64(sp.State1)
	phv.GlobalResult = uint64(int64(int16(sp.Global)))
	phv.QueryID = int(sp.QID)
}
