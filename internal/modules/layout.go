package modules

import (
	"fmt"

	"github.com/newton-net/newton/internal/dataplane"
)

// LayoutKind selects how module suites map onto physical stages.
type LayoutKind int

const (
	// LayoutNaive places one module per stage (§4.2's strawman): a suite
	// spreads over four stages and each stage uses only that module
	// kind's resource types.
	LayoutNaive LayoutKind = iota
	// LayoutCompact places two full suites — one per metadata set — in
	// every stage, the paper's compact module layout.
	LayoutCompact
)

// String names the layout.
func (k LayoutKind) String() string {
	if k == LayoutCompact {
		return "compact"
	}
	return "naive"
}

// SuitesPerStage returns how many metadata-set suites a stage hosts.
func (k LayoutKind) SuitesPerStage() int {
	if k == LayoutCompact {
		return 2
	}
	return 1
}

// InitCapacityFactor sizes the newton_init classifier relative to a
// module: the classifier holds one entry per branch of every installed
// query across all stages, so it gets this multiple of a single
// module's rule capacity. The scheduler's admission accounting mirrors
// the same factor — keep them in lockstep.
const InitCapacityFactor = 4

// DefaultRulesPerModule is the rule capacity each module, and
// newton_fin, is configured with in the evaluation ("we configure each
// module to accommodate 256 rules", §6.2).
const DefaultRulesPerModule = 256

// ModuleResources returns the per-stage resource consumption of one
// module instance (table + logic, sized for DefaultRulesPerModule
// rules), in the simulator's abstract units. The values are calibrated
// so that, normalized by SwitchP4Usage, they reproduce the per-module
// rows of the paper's Table 3.
func ModuleResources(k Kind) dataplane.Resources {
	switch k {
	case ModK:
		return dataplane.Resources{
			dataplane.Crossbar: 4, dataplane.SRAM: 8, dataplane.VLIW: 10,
			dataplane.HashBits: 20, dataplane.Gateway: 1,
		}
	case ModH:
		return dataplane.Resources{
			dataplane.Crossbar: 44, dataplane.SRAM: 4, dataplane.VLIW: 2,
			dataplane.HashBits: 29,
		}
	case ModS:
		return dataplane.Resources{
			dataplane.Crossbar: 20, dataplane.SRAM: 40, dataplane.TCAM: 4,
			dataplane.VLIW: 6, dataplane.HashBits: 40, dataplane.SALU: 1,
		}
	case ModR:
		return dataplane.Resources{
			dataplane.Crossbar: 10, dataplane.SRAM: 4, dataplane.TCAM: 8,
			dataplane.VLIW: 30,
		}
	}
	panic(fmt.Sprintf("modules: unknown module kind %d", k))
}

// SuiteResources is the consumption of one full K+H+S+R suite.
func SuiteResources() dataplane.Resources {
	var r dataplane.Resources
	for k := Kind(0); k < NumKinds; k++ {
		r.Add(ModuleResources(k))
	}
	return r
}

// SwitchP4Usage is the total resource usage of the switch.p4 reference
// program in the same abstract units — the normalization base of
// Table 3.
func SwitchP4Usage() dataplane.Resources {
	return dataplane.Resources{
		dataplane.Crossbar: 1646, dataplane.SRAM: 1136, dataplane.TCAM: 186,
		dataplane.VLIW: 284, dataplane.HashBits: 1818, dataplane.SALU: 18,
		dataplane.Gateway: 70,
	}
}

// StageCapacity is the per-stage budget used for Newton pipelines: large
// enough for two full suites (the compact layout) with headroom for the
// forwarding tables that share the pipeline.
func StageCapacity() dataplane.Resources {
	return dataplane.Resources{
		dataplane.Crossbar: 170, dataplane.SRAM: 130, dataplane.TCAM: 26,
		dataplane.VLIW: 100, dataplane.HashBits: 200, dataplane.SALU: 4,
		dataplane.Gateway: 16,
	}
}

// suite is one metadata set's module instances within a stage. A module
// is never looked up — the engine runs each branch's op chain directly —
// so what it holds is a count: rules[k] ops are installed in module k,
// at most DefaultRulesPerModule, where the suite hosts k at all.
type suite struct {
	hosts [NumKinds]bool
	rules [NumKinds]int
	bank  *dataplane.RegisterBank
}

// Layout is the module geometry loaded into a pipeline at initialization
// time. Everything after this — which queries run, with what parameters
// — is table rules.
type Layout struct {
	Kind      LayoutKind
	ArraySize uint32

	pipeline *dataplane.Pipeline
	suites   [][]*suite // [stage][suiteIdx]

	// Init is the newton_init classifier, the one Newton table a packet
	// is matched against. fin counts newton_fin's entries (the result
	// snapshot of cross-switch execution): one per installed program, at
	// most DefaultRulesPerModule.
	Init *dataplane.Table
	fin  int
}

// NewLayout loads a module layout into a fresh pipeline of the given
// stage count. ArraySize is each state bank's admission budget in
// registers; a bank allocates nothing until a query is installed.
func NewLayout(kind LayoutKind, stages int, arraySize uint32) (*Layout, error) {
	if arraySize == 0 {
		arraySize = 4096
	}
	l := &Layout{
		Kind:      kind,
		ArraySize: arraySize,
		pipeline:  dataplane.NewPipeline(stages, StageCapacity()),
		Init:      dataplane.NewTable("newton_init", dataplane.MatchTernary, 6, DefaultRulesPerModule*InitCapacityFactor),
	}
	for si, st := range l.pipeline.Stages {
		var suites []*suite
		for u := 0; u < kind.SuitesPerStage(); u++ {
			s := &suite{}
			for k := Kind(0); k < NumKinds; k++ {
				if kind == LayoutNaive && Kind(si%int(NumKinds)) != k {
					continue // naive: stage si hosts only module kind si mod 4
				}
				var rb *dataplane.RegisterBank
				if k == ModS {
					rb = dataplane.NewRegisterBank(fmt.Sprintf("bank_s%d_u%d", si, u), arraySize)
					s.bank = rb
				}
				if err := st.Place(fmt.Sprintf("newton_%v_s%d_u%d", k, si, u), ModuleResources(k), rb); err != nil {
					return nil, fmt.Errorf("modules: loading %v layout: %w", kind, err)
				}
				s.hosts[k] = true
			}
			suites = append(suites, s)
		}
		l.suites = append(l.suites, suites)
	}
	return l, nil
}

// Stages returns the number of physical stages.
func (l *Layout) Stages() int { return len(l.suites) }

// Epoch returns the current window epoch of the layout's state banks
// (they all roll together via Pipeline.NextEpoch).
func (l *Layout) Epoch() uint32 {
	for _, ss := range l.suites {
		for _, s := range ss {
			if s.bank != nil {
				return s.bank.Epoch()
			}
		}
	}
	return 0
}

// Pipeline exposes the underlying pipeline (for resource reports and
// epoch advancement).
func (l *Layout) Pipeline() *dataplane.Pipeline { return l.pipeline }

// hosts reports whether (1-based) stage, suite u has a module of kind k.
func (l *Layout) hosts(stage, u int, k Kind) bool {
	s := l.suiteAt(stage, u)
	return s != nil && s.hosts[k]
}

// takeRule installs one rule in module k of (stage, suite u).
func (l *Layout) takeRule(stage, u int, k Kind) error {
	if !l.hosts(stage, u, k) {
		return fmt.Errorf("modules: layout has no %v module at stage %d suite %d", k, stage, u)
	}
	s := l.suiteAt(stage, u)
	if s.rules[k] >= DefaultRulesPerModule {
		return fmt.Errorf("modules: %v module at stage %d suite %d full (%d rules)", k, stage, u, DefaultRulesPerModule)
	}
	s.rules[k]++
	return nil
}

// dropRule removes a rule takeRule installed.
func (l *Layout) dropRule(stage, u int, k Kind) { l.suiteAt(stage, u).rules[k]-- }

func (l *Layout) suiteAt(stage, u int) *suite {
	if stage < 1 || stage > len(l.suites) {
		return nil
	}
	ss := l.suites[stage-1]
	if u < 0 || u >= len(ss) {
		return nil
	}
	return ss[u]
}

// BankAt returns the state bank of (stage, suite).
func (l *Layout) BankAt(stage, u int) *dataplane.RegisterBank {
	s := l.suiteAt(stage, u)
	if s == nil {
		return nil
	}
	return s.bank
}

// AllocRegisters admits width registers against (stage, suite)'s bank
// and returns them as a fresh zeroed array — the runtime register
// allocation that lets concurrent queries share one bank.
func (l *Layout) AllocRegisters(stage, u int, width uint32) (*dataplane.RegisterArray, error) {
	bank := l.BankAt(stage, u)
	if bank == nil {
		return nil, fmt.Errorf("modules: no state bank at stage %d suite %d", stage, u)
	}
	ra := bank.Alloc(width)
	if ra == nil {
		return nil, fmt.Errorf("modules: state bank at stage %d suite %d exhausted (%d + %d > %d)",
			stage, u, bank.Admitted(), width, bank.Size())
	}
	return ra, nil
}

// FreeRegisters returns an allocation's registers to (stage, suite)'s
// budget.
func (l *Layout) FreeRegisters(stage, u int, ra *dataplane.RegisterArray) {
	if bank := l.BankAt(stage, u); bank != nil {
		bank.Free(ra)
	}
}

// TernaryScans is always 0: newton_init answers every lookup from its
// compiled classifier. It stays only because benchmark/ reads it.
func (l *Layout) TernaryScans() uint64 { return 0 }

// TotalRuleEntries sums installed rules across newton_init, newton_fin
// and every module — the table-entry metric of Figs. 16 and 17.
func (l *Layout) TotalRuleEntries() int {
	n := l.Init.Entries() + l.fin
	for _, ss := range l.suites {
		for _, s := range ss {
			for _, r := range s.rules {
				n += r
			}
		}
	}
	return n
}
