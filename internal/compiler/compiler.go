// Package compiler translates traffic-monitoring queries into Newton
// module configurations and table rules (§4.3). It implements query
// primitive decomposition (each primitive becomes configurations of the
// K/H/S/R modules), module rule composition per Algorithm 1 with its
// three optimizations, the naïve baseline composition the evaluation
// compares against, and the Sonata compilation model used in Fig. 15.
package compiler

import (
	"cmp"
	"fmt"
	"slices"

	"github.com/newton-net/newton/internal/dataplane"
	"github.com/newton-net/newton/internal/fields"
	"github.com/newton-net/newton/internal/modules"
	"github.com/newton-net/newton/internal/query"
	"github.com/newton-net/newton/internal/sketch"
)

// Options parameterizes compilation.
type Options struct {
	// QID is the data-plane query identifier (12 bits on the SP header).
	QID int

	// Opt1 replaces front filters with newton_init entries; Opt2 removes
	// unused and redundant modules; Opt3 composes vertically over the
	// two metadata sets of the compact layout.
	Opt1, Opt2, Opt3 bool

	// ReduceRows is the Count-Min row count per reduce (evaluation
	// default: 2). DistinctHashes is the Bloom hash count per distinct
	// (default: 3).
	ReduceRows, DistinctHashes int

	// Width is the register count per sketch row.
	Width uint32

	// ShardIndex/ShardCount configure key-sharded cross-switch execution
	// (§5.1): this device owns keys whose owner hash ≡ ShardIndex mod
	// ShardCount. Count 0 or 1 disables sharding.
	ShardIndex, ShardCount uint32
}

func (o Options) withDefaults() Options {
	if o.ReduceRows <= 0 {
		o.ReduceRows = 2
	}
	if o.DistinctHashes <= 0 {
		o.DistinctHashes = 3
	}
	if o.Width == 0 {
		o.Width = 1024
	}
	return o
}

// AllOpts enables every composition optimization.
func AllOpts() Options { return Options{Opt1: true, Opt2: true, Opt3: true} }

// Baseline disables every optimization: full suites, one module per
// stage — the evaluation's baseline composition.
func Baseline() Options { return Options{} }

// rowSeed derives the hash seed of sketch row r. All branches of a query
// share row seeds so cross-branch state reads align on key values.
func rowSeed(r int) uint32 { return 0x9E3779B9 + uint32(r)*0x85EBCA6B }

// filterSeed seeds the equality-filter hash.
const filterSeed = 0xF117F117

// continueAll is the R entry range that matches any realistic value.
const rInf = int64(1) << 62

// unit is an intermediate group of ops produced by decomposing one
// primitive (or one sketch row of a stateful primitive). Units are the
// granularity of metadata-set alternation in vertical composition.
type unit struct {
	ops []*modules.Op

	// gates marks units whose R can stop the packet (filters, the
	// distinct gate): later state writes must be staged after them.
	gates bool
	// isRow0 marks the unit carrying a reduce's first sketch row; its
	// metadata set holds the entity keys reports mirror.
	isRow0 bool
	// tailRead marks merge-tail units reading other branches' banks;
	// they are forced onto the set opposite the report keys.
	tailRead bool
	// reportR marks the unit whose R mirrors reports; it is forced onto
	// the row-0 set so the mirrored keys are the monitored entity.
	reportR bool
}

// Compiler compiles queries. A compile decomposes the query into
// scratch storage the Compiler keeps from one compile to the next, then
// copies the program out into an arena of exactly its size
// (modules.Program.Clone), so a warm compile allocates the dozen
// objects of that arena and little else. The zero value is ready to
// use; a Compiler is not safe for concurrent use.
type Compiler struct {
	ops     pool[modules.Op]
	ks      pool[modules.KConfig]
	hs      pool[modules.HConfig]
	ss      pool[modules.SConfig]
	rs      pool[modules.RConfig]
	entries pool[modules.REntry]
	actions pool[modules.RAct]
	units   pool[unit]

	// The branches of the program being compiled, their ops in the
	// pools.
	branches   []modules.BranchProgram
	branchPtrs []*modules.BranchProgram

	list         []*unit // the units of the branch being compiled
	eq, rng, res []query.Predicate
}

// pool hands out values that stay where they are until the next
// compile: it grows a chunk at a time, each twice the last, never moving
// what it handed out, and keeps its chunks from one compile to the next.
type pool[T any] struct {
	chunks      [][]T
	chunk, used int // the chunk being taken from, and how much of it is
}

// take returns the next n values, as a previous compile left them.
func (p *pool[T]) take(n int) []T {
	for p.chunk < len(p.chunks) && p.used+n > len(p.chunks[p.chunk]) {
		p.chunk, p.used = p.chunk+1, 0
	}
	if p.chunk == len(p.chunks) {
		size := 8
		if k := len(p.chunks); k > 0 {
			size = 2 * len(p.chunks[k-1])
		}
		p.chunks = append(p.chunks, make([]T, max(size, n)))
	}
	s := p.chunks[p.chunk][p.used : p.used+n : p.used+n]
	p.used += n
	return s
}

func (p *pool[T]) reset() { p.chunk, p.used = 0, 0 }

// put returns a pooled copy of v.
func put[T any](p *pool[T], v T) *T {
	s := p.take(1)
	s[0] = v
	return &s[0]
}

// putAll returns a pooled copy of vs.
func putAll[T any](p *pool[T], vs ...T) []T {
	s := p.take(len(vs))
	copy(s, vs)
	return s
}

// kOp, hOp, sOp and rOp return a pooled op of their module with a
// pooled config.
func (c *Compiler) kOp(m fields.Mask) *modules.Op {
	return put(&c.ops, modules.Op{Kind: modules.ModK, K: put(&c.ks, modules.KConfig{Mask: m})})
}

func (c *Compiler) hOp(h modules.HConfig) *modules.Op {
	return put(&c.ops, modules.Op{Kind: modules.ModH, H: put(&c.hs, h)})
}

func (c *Compiler) sOp(s modules.SConfig) *modules.Op {
	return put(&c.ops, modules.Op{Kind: modules.ModS, S: put(&c.ss, s)})
}

func (c *Compiler) rOp(onGlobal bool, entries ...modules.REntry) *modules.Op {
	r := put(&c.rs, modules.RConfig{OnGlobal: onGlobal, Entries: putAll(&c.entries, entries...)})
	return put(&c.ops, modules.Op{Kind: modules.ModR, R: r})
}

// acts returns a pooled action list.
func (c *Compiler) acts(a ...modules.RAct) []modules.RAct { return putAll(&c.actions, a...) }

// unit returns a pooled unit with no ops and u's marks.
func (c *Compiler) unit(u unit) *unit {
	p := &c.units.take(1)[0]
	u.ops = p.ops[:0]
	*p = u
	return p
}

// reset hands every pooled value back for the next compile.
func (c *Compiler) reset() {
	c.ops.reset()
	c.ks.reset()
	c.hs.reset()
	c.ss.reset()
	c.rs.reset()
	c.entries.reset()
	c.actions.reset()
	c.units.reset()
}

// Compile translates q into a data-plane program under the given
// options, in a Compiler of its own.
func Compile(q *query.Query, o Options) (*modules.Program, error) {
	var c Compiler
	return c.Compile(q, o)
}

// Compile translates q into a data-plane program under the given
// options. The program shares nothing with the Compiler.
func (c *Compiler) Compile(q *query.Query, o Options) (*modules.Program, error) {
	if err := q.Validate(); err != nil {
		return nil, fmt.Errorf("compiler: %w", err)
	}
	o = o.withDefaults()
	if q.Merge != nil {
		for bi := range q.Branches {
			if len(q.Branches[bi].StatefulKeys().Fields()) != 1 {
				return nil, fmt.Errorf("compiler: merge query %s branch %d needs a single-field stateful key", q.Name, bi)
			}
		}
	}
	c.reset()
	if len(c.branches) < len(q.Branches) {
		c.branches = append(c.branches, make([]modules.BranchProgram, len(q.Branches)-len(c.branches))...)
	}
	c.branchPtrs = c.branchPtrs[:0]
	// Without Opt.3 the composition is the intuitive one: the whole
	// query — all branches — chains horizontally, one module per stage
	// (Fig. 6's "up to 20 modules and 20 stages"). With Opt.3, branches
	// multiplex rules into the same stages.
	seq := 0
	for bi := range q.Branches {
		bp := &c.branches[bi]
		units, err := c.compileBranch(bp, q, bi, o)
		if err != nil {
			return nil, err
		}
		assignSets(units, o)
		if o.Opt2 {
			units = pruneRedundantK(units)
		}
		seq = assignStages(units, o, seq)
		bp.Ops = bp.Ops[:0]
		for _, u := range units {
			bp.Ops = append(bp.Ops, u.ops...)
		}
		// Units interleave across stages; the chain runs in pipeline
		// order. The sort is stable, so ops sharing a stage keep the unit
		// order the dependency rules were checked in.
		slices.SortStableFunc(bp.Ops, func(a, b *modules.Op) int { return cmp.Compare(a.Stage, b.Stage) })
		c.branchPtrs = append(c.branchPtrs, bp)
	}
	p := modules.Program{QID: o.QID, Name: q.Name, Branches: c.branchPtrs}
	return p.Clone(), nil
}

// compileBranch lowers one branch into bp's traffic class and units:
// Opt.1 front-filter folding, primitive decomposition, and the merge
// tail.
func (c *Compiler) compileBranch(bp *modules.BranchProgram, q *query.Query, bi int, o Options) ([]*unit, error) {
	b := &q.Branches[bi]
	bp.Init = modules.MatchAllInit()

	prims := b.Prims
	if o.Opt1 && len(prims) > 0 && prims[0].IsFrontFilter() {
		bp.Init = initMatchFor(prims[0])
		prims = prims[1:]
	}

	units, err := c.decompose(c.list[:0], q, prims, o)
	if err != nil {
		return nil, fmt.Errorf("compiler: %s branch %d: %w", q.Name, bi, err)
	}
	units = c.mergeTail(units, q, bi, o)
	c.list = units
	return units, nil
}

// initMatchFor builds the newton_init ternary entry equivalent to a
// front filter.
func initMatchFor(pr query.Primitive) modules.InitMatch {
	var m modules.InitMatch
	col := func(f fields.ID) int {
		switch f {
		case fields.SrcIP:
			return 0
		case fields.DstIP:
			return 1
		case fields.Proto:
			return 2
		case fields.SrcPort:
			return 3
		case fields.DstPort:
			return 4
		case fields.TCPFlags:
			return 5
		}
		return -1
	}
	for _, pred := range pr.Preds {
		c := col(pred.Field)
		if c < 0 {
			continue
		}
		mask := pred.Field.MaxValue()
		if pred.Op == query.CmpMaskEq {
			mask = pred.Mask
		}
		m.Values[c] = pred.Value & mask
		m.Masks[c] = mask
	}
	return m
}

// decompose lowers primitives into units of module ops (configs only;
// sets and stages come later), appended to units.
func (c *Compiler) decompose(units []*unit, q *query.Query, prims []query.Primitive, o Options) ([]*unit, error) {
	// curKeys tracks the chain's current operation keys (θ in Algorithm
	// 1): unoptimized suites whose K is semantically unused re-select
	// them so downstream modules (and reports) see unchanged keys.
	curKeys := fields.Keep(fields.DstIP)
	kOp := func(m fields.Mask) *modules.Op {
		curKeys = m
		return c.kOp(m)
	}
	filterH := modules.HConfig{Algo: sketch.FNV1a, Seed: filterSeed, Direct: modules.NoField}
	passThrough := modules.SConfig{PassThrough: true}

	// counts is whether the last reduce counts packets (steps by one)
	// rather than summing a field.
	counts := true
	for pi, pr := range prims {
		lastPrim := pi == len(prims)-1
		switch pr.Kind {
		case query.KindFilter:
			c.eq, c.rng, c.res = splitPreds(pr.Preds, c.eq[:0], c.rng[:0], c.res[:0])
			if len(c.eq) > 0 {
				u := c.unit(unit{gates: true})
				mask := predMask(c.eq)
				expect := expectedHash(c.eq, mask)
				u.ops = append(u.ops, kOp(mask), c.hOp(filterH), c.sOp(passThrough),
					c.rOp(false, modules.REntry{Lo: int64(expect), Hi: int64(expect)})) // match → continue
				units = append(units, u)
			}
			for _, pred := range c.rng {
				u := c.unit(unit{gates: true})
				lo, hi := predRange(pred)
				u.ops = append(u.ops, kOp(fields.Keep(pred.Field)), c.hOp(modules.HConfig{Direct: pred.Field}),
					c.sOp(passThrough), c.rOp(false, modules.REntry{Lo: lo, Hi: hi}))
				units = append(units, u)
			}
			for _, pred := range c.res {
				u := c.unit(unit{gates: true})
				if !o.Opt2 {
					// Unoptimized, the suite still carries the unused
					// K/H/S modules Opt.2 would strip; its K re-selects
					// the current keys so reports stay intact.
					u.ops = append(u.ops, kOp(curKeys), c.hOp(filterH), c.sOp(passThrough))
				}
				if q.Merge == nil && lastPrim && (pred.Op == query.CmpGt || pred.Op == query.CmpGe) {
					u.reportR = true
				}
				u.ops = append(u.ops, c.resultR(q, pred, lastPrim, counts))
				units = append(units, u)
			}

		case query.KindMap:
			u := c.unit(unit{})
			u.ops = append(u.ops, kOp(pr.Keys))
			if !o.Opt2 {
				u.ops = append(u.ops, c.hOp(filterH), c.sOp(passThrough), c.rOp(false, modules.REntry{Lo: -rInf, Hi: rInf}))
			}
			units = append(units, u)

		case query.KindDistinct:
			for r := 0; r < o.DistinctHashes; r++ {
				act := modules.RAct{Kind: modules.RActGlobalAdd, Coeff: 1}
				if r == 0 {
					act = modules.RAct{Kind: modules.RActSetGlobal}
				}
				u := c.unit(unit{})
				u.ops = append(u.ops, kOp(pr.Keys),
					c.hOp(modules.HConfig{Algo: sketch.CRC32IEEE, Seed: rowSeed(r), Range: o.Width, Direct: modules.NoField}),
					c.sOp(modules.SConfig{
						ALU: dataplane.OpOr, Operand: modules.OperandConst, Const: 1,
						WidthHint: o.Width, OwnerIndex: o.ShardIndex, OwnerCount: o.ShardCount,
					}),
					c.rOp(false, modules.REntry{Lo: -rInf, Hi: rInf, Actions: c.acts(act)}))
				units = append(units, u)
			}
			// Gate: seen before iff every row's old bit was set
			// (global == rows). New → continue, seen → stop.
			gate := c.unit(unit{gates: true})
			gate.ops = append(gate.ops, c.rOp(true, modules.REntry{Lo: 0, Hi: int64(o.DistinctHashes) - 1}))
			units = append(units, gate)

		case query.KindReduce:
			counts = pr.Value == query.ValueOne
			operand, constv, fieldv := modules.OperandConst, uint32(1), fields.ID(0)
			if !counts {
				operand, fieldv = modules.OperandField, pr.Value
			}
			for r := 0; r < o.ReduceRows; r++ {
				act := modules.RAct{Kind: modules.RActGlobalMin}
				if r == 0 {
					act = modules.RAct{Kind: modules.RActSetGlobal}
				}
				u := c.unit(unit{isRow0: r == 0})
				u.ops = append(u.ops, kOp(pr.Keys),
					c.hOp(modules.HConfig{Algo: sketch.CRC32IEEE, Seed: rowSeed(r), Range: o.Width, Direct: modules.NoField}),
					c.sOp(modules.SConfig{
						ALU: dataplane.OpAdd, Operand: operand, Const: constv, Field: fieldv,
						WidthHint: o.Width, Row0: r == 0,
						OwnerIndex: o.ShardIndex, OwnerCount: o.ShardCount,
					}),
					c.rOp(false, modules.REntry{Lo: -rInf, Hi: rInf, Actions: c.acts(act)}))
				units = append(units, u)
			}
		}
	}
	return units, nil
}

// resultR compiles a result predicate into an R on the global result.
// The final threshold of a single-branch query reports. A count steps by
// one, so its exact crossing value gets the report action — Newton's
// accurate "report once per key per window" exportation. A sum steps by
// the summed field and can jump any one value, so every value past its
// threshold reports, and the analyzer counts a key once a window.
func (c *Compiler) resultR(q *query.Query, pred query.Predicate, lastPrim, counts bool) *modules.Op {
	lo, hi := predRange(pred)
	if q.Merge == nil && lastPrim && (pred.Op == query.CmpGt || pred.Op == query.CmpGe) {
		report := c.acts(modules.RAct{Kind: modules.RActReport})
		if !counts {
			return c.rOp(true, modules.REntry{Lo: lo, Hi: hi, Actions: report})
		}
		return c.rOp(true,
			modules.REntry{Lo: lo, Hi: lo, Actions: report},
			modules.REntry{Lo: lo + 1, Hi: hi}) // already reported this window → continue silently
	}
	return c.rOp(true, modules.REntry{Lo: lo, Hi: hi})
}

// splitPreds partitions filter predicates into equality-on-packet,
// range-on-packet, and on-result classes, appended to eq, rng and res.
func splitPreds(preds, eq, rng, res []query.Predicate) ([]query.Predicate, []query.Predicate, []query.Predicate) {
	for _, p := range preds {
		switch {
		case p.OnResult():
			res = append(res, p)
		case p.Op == query.CmpEq || p.Op == query.CmpMaskEq:
			eq = append(eq, p)
		default:
			rng = append(rng, p)
		}
	}
	return eq, rng, res
}

// predMask builds the K mask covering equality predicates (using the
// predicate's own bit mask for masked matches).
func predMask(preds []query.Predicate) fields.Mask {
	var m fields.Mask
	for _, p := range preds {
		bits := p.Field.MaxValue()
		if p.Op == query.CmpMaskEq {
			bits = p.Mask
		}
		m = m.WithBits(p.Field, bits)
	}
	return m
}

// expectedHash computes the hash the filter's R entry matches: the hash
// of the expected operation keys, exactly as the engine computes it for
// a satisfying packet.
func expectedHash(preds []query.Predicate, mask fields.Mask) uint32 {
	var v fields.Vector
	for _, p := range preds {
		v.Set(p.Field, p.Value)
	}
	keys := mask.Apply(&v)
	var buf [8 * int(fields.NumFields)]byte
	return sketch.FNV1a.Sum(mask.Bytes(&keys, buf[:0]), filterSeed)
}

// predRange converts a comparison into the [lo, hi] continue-range of an
// R entry.
func predRange(p query.Predicate) (int64, int64) {
	switch p.Op {
	case query.CmpGt:
		return int64(p.Value) + 1, rInf
	case query.CmpGe:
		return int64(p.Value), rInf
	case query.CmpLt:
		return -rInf, int64(p.Value) - 1
	case query.CmpLe:
		return -rInf, int64(p.Value)
	case query.CmpNe:
		// Ne needs two ternary entries; result values are counts, so in
		// practice != v means > v. Documented approximation.
		return int64(p.Value) + 1, rInf
	default: // CmpEq
		return int64(p.Value), int64(p.Value)
	}
}
