// Package modules implements Newton's reconfigurable data-plane modules
// (§4.1): key selection (K), hash calculation (H), state bank (S), and
// result process (R), plus the newton_init classifier and the newton_fin
// result-snapshot table. Query primitives decompose into configurations
// of these modules, installed as table rules at runtime — never by
// reloading the pipeline.
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
	// array it targets. width is the array's size.
	array *dataplane.RegisterArray
	width uint32
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

	ruleID int // rule installed in the module's table
}

// String renders the op for composition dumps, e.g. "K0@s1".
func (o Op) String() string {
	return fmt.Sprintf("%v%d@s%d", o.Kind, o.Set, o.Stage)
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
	Ops  []*Op

	initRuleID int
}

// Program is a fully compiled query ready to install: one entry and op
// chain per branch. Stages beyond the device's stage count are executed
// by later partitions (cross-switch execution) or deferred to the
// software analyzer.
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

// moduleRuleAction is the per-module rule action carrying the op config.
type moduleRuleAction struct{ op *Op }

// ActionName implements dataplane.Action.
func (moduleRuleAction) ActionName() string { return "configure_module" }
