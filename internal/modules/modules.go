// Package modules implements Newton's reconfigurable data-plane modules
// (§4.1): key selection (K), hash calculation (H), state bank (S), and
// result process (R), plus the newton_init classifier and the newton_fin
// result-snapshot table. Query primitives decompose into configurations
// of these modules, installed as table rules at runtime — never by
// reloading the pipeline. Module and newton_fin rules are counted, not
// stored: the engine runs each branch's op chain directly.
package modules

import (
	"fmt"

	"github.com/newton-net/newton/internal/dataplane"
	"github.com/newton-net/newton/internal/fields"
	"github.com/newton-net/newton/internal/sketch"
)

// Kind identifies a module type.
type Kind int

const (
	// ModK is key selection.
	ModK Kind = iota
	// ModH is hash calculation.
	ModH
	// ModS is the state bank.
	ModS
	// ModR is result process.
	ModR
	// NumKinds is the number of module kinds in a suite.
	NumKinds
)

var kindNames = [NumKinds]string{"K", "H", "S", "R"}

// String names the module kind as the paper does.
func (k Kind) String() string {
	if k >= 0 && k < NumKinds {
		return kindNames[k]
	}
	return fmt.Sprintf("mod(%d)", int(k))
}

// NoField marks "no direct field" in hash configs.
const NoField fields.ID = 0xFF

// KConfig configures a key-selection module: the bit-mask over the
// global field set that derives the operation keys.
type KConfig struct {
	Mask fields.Mask

	// idx is Mask's index in the engine's mask table, bound at install
	// time (Engine.internMask).
	idx int
}

// HConfig configures a hash-calculation module.
type HConfig struct {
	// Algo and Seed select the hash function; Range folds the result
	// into [0, Range) (the "adjustable range of the hash result" that
	// gives S flexible register allocation among queries).
	Algo  sketch.Algo
	Seed  uint32
	Range uint32
	// Direct, when not NoField, bypasses hashing: the hash result is the
	// operation key's field value verbatim (the paper's direct mode).
	Direct fields.ID
}

// OperandKind selects what the state bank's ALU consumes.
type OperandKind int

const (
	// OperandConst uses SConfig.Const.
	OperandConst OperandKind = iota
	// OperandField uses the packet field SConfig.Field.
	OperandField
	// OperandHash uses the metadata set's hash result.
	OperandHash
)

// SConfig configures a state-bank module: which ALU runs over which
// register array, and with what operand.
type SConfig struct {
	ALU     dataplane.SALUOp
	Operand OperandKind
	Const   uint32
	Field   fields.ID

	// PassThrough short-circuits the bank: the state result is the hash
	// result itself (how filters and maps traverse S untouched).
	PassThrough bool

	// Owner implements key-sharded cross-switch execution (§5.1): the
	// module executes only when hash(key) mod OwnerCount == OwnerIndex,
	// so h switches along a path partition the key space and the query
	// uses all of their register memory. OwnerCount 0 or 1 disables
	// sharding.
	OwnerIndex, OwnerCount uint32

	// WidthHint is the register count the op wants from its bank; it
	// must equal the governing H module's Range. Zero defaults to the
	// compiler's register budget.
	WidthHint uint32

	// Row0 marks the state bank of a reduce's first sketch row — the
	// bank cross-branch merge reads target.
	Row0 bool

	// CrossRead makes this op read the Row0 bank of branch ReadBranch
	// instead of allocating its own registers (the cross-branch reads
	// that realize Fig. 6's result merging).
	CrossRead  bool
	ReadBranch int

	// array is the op's registers, bound at install time: an owning op's
	// own allocation from its stage's bank, or for a cross read the Row0
	// array it targets. An owning or op — a Bloom filter's row — has bits
	// instead, and array stays nil. width is the row's size.
	array *dataplane.RegisterArray
	bits  *dataplane.BloomRow
	width uint32
}

// bindRow gives an owning op fresh zeroed registers of width: a bitmap
// for a Bloom filter's or, 32-bit words for anything else. It returns
// what they cost the host.
func (s *SConfig) bindRow(width uint32) int {
	s.width = width
	if s.ALU == dataplane.OpOr {
		s.bits = dataplane.NewBloomRow(width)
		return s.bits.MemoryBytes()
	}
	s.array = dataplane.NewRegisterArray(width)
	return s.array.MemoryBytes()
}

// rowBytes is what an owning op's registers cost the host.
func (s *SConfig) rowBytes() int {
	if s.bits != nil {
		return s.bits.MemoryBytes()
	}
	return s.array.MemoryBytes()
}

// resetRow zeroes an owning op's registers.
func (s *SConfig) resetRow() {
	if s.bits != nil {
		s.bits.Reset()
	} else {
		s.array.Reset()
	}
}

// RActKind is one result-process action.
type RActKind int

const (
	// RActReport mirrors the metadata set to the analyzer.
	RActReport RActKind = iota
	// RActStop terminates the query for this packet.
	RActStop
	// RActSetGlobal writes the state result into the global result.
	RActSetGlobal
	// RActGlobalAdd adds Coeff × state result into the (signed) global
	// result.
	RActGlobalAdd
	// RActGlobalMin folds the global result with min(global, state).
	RActGlobalMin
	// RActGlobalScale multiplies the (signed) global result by Coeff.
	RActGlobalScale
)

// RAct is one action of a result-process entry.
type RAct struct {
	Kind  RActKind
	Coeff int64 // RActGlobalAdd only
}

// REntry is one ternary-match entry of a result-process module: if the
// matched value falls in [Lo, Hi], run the actions.
type REntry struct {
	Lo, Hi  int64
	Actions []RAct
}

// RConfig configures a result-process module.
type RConfig struct {
	// OnGlobal matches against the (signed) global result instead of the
	// metadata set's state result.
	OnGlobal bool
	Entries  []REntry
}

// Op is one module invocation in a compiled query chain: which module
// kind, which metadata set it reads/writes, its stage assignment from
// the composition algorithm, and its configuration.
type Op struct {
	Kind  Kind
	Set   int // metadata set index (0 or 1)
	Stage int // physical stage assigned by Algorithm 1

	K *KConfig
	H *HConfig
	S *SConfig
	R *RConfig
}

// String renders the op for composition dumps, e.g. "K0@s1".
func (o Op) String() string {
	return fmt.Sprintf("%v%d@s%d", o.Kind, o.Set, o.Stage)
}

// OwnsRegisters reports whether the op is a state bank with registers of
// its own. A pass-through op keeps no state and a cross read uses
// another branch's row, so neither takes registers from its bank.
func (o *Op) OwnsRegisters() bool {
	return o.Kind == ModS && o.S != nil && !o.S.PassThrough && !o.S.CrossRead
}

// Width returns the register width a state-bank op needs.
func (o *Op) Width() uint32 {
	if o.S != nil && o.S.WidthHint > 0 {
		return o.S.WidthHint
	}
	return 1024
}

// InitMatch is one newton_init classifier entry: ternary over the
// 5-tuple and TCP flags.
type InitMatch struct {
	Values [6]uint64 // sip, dip, proto, sport, dport, tcpflags
	Masks  [6]uint64
}

// MatchAllInit matches every packet.
func MatchAllInit() InitMatch { return InitMatch{} }

// BranchProgram is one branch's compiled form: its traffic class (the
// newton_init entry that dispatches to it) and its ops in execution
// order.
type BranchProgram struct {
	Init InitMatch
	// Ops is in stage order — Stage never decreases along the chain — as
	// the pipeline runs it: the compiler emits it so and SliceProgram
	// keeps it, which makes a partition a contiguous run of Ops.
	Ops []*Op

	initRuleID int
}

// Program is a fully compiled query ready to install: one entry and op
// chain per branch. A query with more stages than one device runs as
// SliceProgram's partitions, one per switch along the path (cross-switch
// execution). Every program the system builds keeps its parts in an
// Arena.
type Program struct {
	QID      int
	Name     string
	Branches []*BranchProgram

	// Part/TotalParts identify this program's slot in a cross-switch
	// execution (set by SliceProgram); TotalParts <= 1 means the whole
	// query runs on one switch.
	Part, TotalParts int
}

// NumOps counts module instances across branches (the "modules" axis of
// Fig. 15b).
func (p *Program) NumOps() int {
	n := 0
	for _, b := range p.Branches {
		n += len(b.Ops)
	}
	return n
}

// NumStages returns the highest stage any op is assigned to (the
// "stages" axis of Fig. 15c).
func (p *Program) NumStages() int {
	max := 0
	for _, b := range p.Branches {
		for _, op := range b.Ops {
			if op.Stage > max {
				max = op.Stage
			}
		}
	}
	return max
}

// RuleCount is the total table entries the program installs: one per
// module op plus one newton_init entry per branch.
func (p *Program) RuleCount() int {
	return p.NumOps() + len(p.Branches)
}

// chainAction is the newton_init rule action dispatching to a branch.
type chainAction struct {
	prog   *Program
	branch *BranchProgram
}

// ActionName implements dataplane.Action.
func (chainAction) ActionName() string { return "run_chain" }

// domain is one row of the table of what an op's fields may hold: the
// values the packet path can run. kind is the module whose config holds
// the field, or anyKind for a field of every op; check returns the
// field's value and whether it lies in the domain; what names the value
// in a refusal.
type domain struct {
	kind  Kind
	what  string
	check func(p *Program, op *Op) (int64, bool)
}

// anyKind marks a domain row that holds for every op.
const anyKind Kind = -1

// domains is every field a control channel can set past what Execute
// indexes or switches on: a value outside its row would index past a
// field vector or a branch list, name an ALU, a hash or an action the
// packet path panics on or ignores, or shard a key space no switch
// owns, or OR into a Bloom row anything but the constant 1 — a Bloom
// row's registers are bits. The rows run in order and the first that
// fails refuses the op:
// the kind rows come first, so a config row only sees its own config.
var domains = [...]domain{
	{anyKind, "module kind %d", func(_ *Program, op *Op) (int64, bool) {
		return int64(op.Kind), op.Kind >= 0 && op.Kind < NumKinds
	}},
	{anyKind, "metadata set %d", func(_ *Program, op *Op) (int64, bool) {
		return int64(op.Set), op.Set == 0 || op.Set == 1
	}},
	{anyKind, "kind %d without its module's config", func(_ *Program, op *Op) (int64, bool) {
		return int64(op.Kind), op.Kind == ModK && op.K != nil || op.Kind == ModH && op.H != nil ||
			op.Kind == ModS && op.S != nil || op.Kind == ModR && op.R != nil
	}},
	{ModH, "hash algorithm %d", func(_ *Program, op *Op) (int64, bool) {
		return int64(op.H.Algo), op.H.Algo.Known()
	}},
	{ModH, "direct field %d", func(_ *Program, op *Op) (int64, bool) {
		return int64(op.H.Direct), op.H.Direct < fields.NumFields || op.H.Direct == NoField
	}},
	{ModS, "ALU op %d", func(_ *Program, op *Op) (int64, bool) {
		return int64(op.S.ALU), op.S.ALU.Known()
	}},
	{ModS, "or of operand kind %d", func(_ *Program, op *Op) (int64, bool) {
		return int64(op.S.Operand), op.S.ALU != dataplane.OpOr || op.S.Operand == OperandConst
	}},
	{ModS, "or of the constant %d", func(_ *Program, op *Op) (int64, bool) {
		return int64(op.S.Const), op.S.ALU != dataplane.OpOr || op.S.Const == 1
	}},
	{ModS, "operand kind %d", func(_ *Program, op *Op) (int64, bool) {
		return int64(op.S.Operand), op.S.Operand >= OperandConst && op.S.Operand <= OperandHash
	}},
	{ModS, "operand field %d", func(_ *Program, op *Op) (int64, bool) {
		return int64(op.S.Field), op.S.Field < fields.NumFields
	}},
	{ModS, "cross read of branch %d", func(p *Program, op *Op) (int64, bool) {
		return int64(op.S.ReadBranch), !op.S.CrossRead || op.S.ReadBranch >= 0 && op.S.ReadBranch < len(p.Branches)
	}},
	{ModS, "owner index %d", func(_ *Program, op *Op) (int64, bool) {
		return int64(op.S.OwnerIndex), op.S.OwnerCount <= 1 || op.S.OwnerIndex < op.S.OwnerCount
	}},
	{ModR, "result action %d", func(_ *Program, op *Op) (int64, bool) {
		for _, e := range op.R.Entries {
			for _, a := range e.Actions {
				if a.Kind < RActReport || a.Kind > RActGlobalScale {
					return int64(a.Kind), false
				}
			}
		}
		return 0, true
	}},
}

// wellFormed rejects a program no compiler emits but a control channel
// can carry: a missing branch or op, a partition slot past its count, or
// an op field outside its row of domains. Every door to Install — the
// rpc agent, the controller's in-process agents, netsim — runs it, and
// an accepted program costs it no allocation.
func (p *Program) wellFormed() error {
	if p.TotalParts > 1 && (p.Part < 0 || p.Part >= p.TotalParts) {
		return fmt.Errorf("modules: query %d: partition %d is past its %d partitions", p.QID, p.Part, p.TotalParts)
	}
	for bi, b := range p.Branches {
		if b == nil {
			return fmt.Errorf("modules: query %d: branch %d is missing", p.QID, bi)
		}
		for oi, op := range b.Ops {
			if op == nil {
				return fmt.Errorf("modules: query %d branch %d: op %d is missing", p.QID, bi, oi)
			}
			for i := range domains {
				d := &domains[i]
				if d.kind != anyKind && d.kind != op.Kind {
					continue
				}
				if v, ok := d.check(p, op); !ok {
					return fmt.Errorf("modules: query %d branch %d: op %d: "+d.what+" is not one the packet path runs",
						p.QID, bi, oi, v)
				}
			}
		}
	}
	return nil
}
