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

// compactSuites is how many metadata-set suites a compact stage hosts,
// the most any layout has; the ledger indexes state banks by it.
const compactSuites = 2

// SuitesPerStage returns how many metadata-set suites a stage hosts.
func (k LayoutKind) SuitesPerStage() int {
	if k == LayoutCompact {
		return compactSuites
	}
	return 1
}

// InitCapacityFactor sizes the newton_init classifier relative to a
// module: the classifier holds one entry per branch of every installed
// query across all stages, so it gets this multiple of a single
// module's rule capacity (Ledger charges against the same multiple).
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

// Layout is the module geometry loaded into a pipeline at initialization
// time. Everything after this — which queries run, with what parameters
// — is table rules.
type Layout struct {
	Kind LayoutKind

	pipeline *dataplane.Pipeline
	banks    [][]*dataplane.RegisterBank // [stage][suite], nil where no S module

	// Init is the newton_init classifier, the one Newton table a packet
	// is matched against. Module rules and newton_fin entries (the result
	// snapshot of cross-switch execution, one per installed program) are
	// counts in the ledger, which charges every installed program.
	Init   *dataplane.Table
	ledger Ledger
}

// NewLayout loads a module layout into a fresh pipeline of the given
// stage count. arraySize is each state bank's admission budget in
// registers; a bank allocates nothing until a query is installed.
func NewLayout(kind LayoutKind, stages int, arraySize uint32) (*Layout, error) {
	if arraySize == 0 {
		arraySize = 4096
	}
	l := &Layout{
		Kind:     kind,
		pipeline: dataplane.NewPipeline(stages, StageCapacity()),
		ledger:   NewLedger(kind, stages, arraySize, DefaultRulesPerModule),
	}
	l.Init = dataplane.NewTable("newton_init", dataplane.MatchTernary, 6, l.ledger.initCapacity())
	for si, st := range l.pipeline.Stages {
		banks := make([]*dataplane.RegisterBank, kind.SuitesPerStage())
		for u := range banks {
			for k := Kind(0); k < NumKinds; k++ {
				if !l.ledger.hosts(si+1, u, k) {
					continue
				}
				var rb *dataplane.RegisterBank
				if k == ModS {
					rb = dataplane.NewRegisterBank(fmt.Sprintf("bank_s%d_u%d", si, u))
					banks[u] = rb
				}
				if err := st.Place(fmt.Sprintf("newton_%v_s%d_u%d", k, si, u), ModuleResources(k), rb); err != nil {
					return nil, fmt.Errorf("modules: loading %v layout: %w", kind, err)
				}
			}
		}
		l.banks = append(l.banks, banks)
	}
	return l, nil
}

// Stages returns the number of physical stages.
func (l *Layout) Stages() int { return len(l.banks) }

// Epoch returns the current window epoch of the layout's state banks
// (they all roll together via Pipeline.NextEpoch).
func (l *Layout) Epoch() uint32 {
	for _, banks := range l.banks {
		for _, b := range banks {
			if b != nil {
				return b.Epoch()
			}
		}
	}
	return 0
}

// Pipeline exposes the underlying pipeline (for resource reports and
// epoch advancement).
func (l *Layout) Pipeline() *dataplane.Pipeline { return l.pipeline }

// BankAt returns the state bank of (stage, suite), or nil.
func (l *Layout) BankAt(stage, u int) *dataplane.RegisterBank {
	if stage < 1 || stage > len(l.banks) || u < 0 || u >= len(l.banks[stage-1]) {
		return nil
	}
	return l.banks[stage-1][u]
}

// TernaryScans is always 0: newton_init answers every lookup from its
// compiled classifier. It stays only because benchmark/ reads it.
func (l *Layout) TernaryScans() uint64 { return 0 }

// TotalRuleEntries sums the ledger's rules across newton_init,
// newton_fin and every module — the table-entry metric of Figs. 16 and
// 17.
func (l *Layout) TotalRuleEntries() int {
	n := l.ledger.init + l.ledger.fin
	for _, r := range l.ledger.rules {
		n += r
	}
	return n
}
