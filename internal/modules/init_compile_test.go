package modules

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"github.com/newton-net/newton/internal/classify"
	"github.com/newton-net/newton/internal/packet"
)

// TestInstallRefusesUncompilableInit: the scheduler's 4096-predicate
// cap does not keep newton_init within its compile budget. Filling the
// table to its capacity of 1024 entries, each pinning its own source
// and destination /32 (2049 predicates with TCP), makes the two address
// columns' cross product outgrow classify's MaxCells, so the install
// that would get there is refused with ErrBudget — and takes nothing
// with it: rules, registers, footprint and the table's Version stay
// as they were.
func TestInstallRefusesUncompilableInit(t *testing.T) {
	l := compactLayout(t)
	eng := NewEngine(l)
	const branches = 64 // 16 programs fill newton_init's 1024 entries
	entry := 0
	prog := func(qid int) *Program {
		p := buildCountProgram(qid, 3, 64)
		for len(p.Branches) < branches {
			p.Branches = append(p.Branches, &BranchProgram{})
		}
		for _, b := range p.Branches {
			entry++
			b.Init = InitMatch{}
			b.Init.Values[0], b.Init.Masks[0] = uint64(0x0A000000+entry), 0xFFFFFFFF
			b.Init.Values[1], b.Init.Masks[1] = uint64(0xC0A80000+entry), 0xFFFFFFFF
			b.Init.Values[2], b.Init.Masks[2] = packet.ProtoTCP, 0xFF
		}
		return p
	}
	const programs = DefaultRulesPerModule * InitCapacityFactor / branches
	for qid := 1; qid < programs; qid++ {
		if err := eng.Install(prog(qid)); err != nil {
			t.Fatalf("install %d (%d entries): %v", qid, qid*branches, err)
		}
	}
	footprint := func() (f Footprint) {
		for _, p := range eng.Programs() {
			fp := p.Footprint()
			f.InitRules += fp.InitRules
			f.Registers += fp.Registers
			f.Rules += fp.Rules
		}
		return f
	}
	rules, version, progs := l.Init.Rules(), l.Init.Version(), eng.Programs()
	entries, bytes, admitted, fp := l.TotalRuleEntries(), eng.StateHostBytes(), l.BankAt(3, 0).Admitted(), footprint()

	err := eng.Install(prog(programs))
	if !errors.Is(err, classify.ErrBudget) {
		t.Fatalf("install filling newton_init to %d entries: err = %v, want classify.ErrBudget", programs*branches, err)
	}
	if !slices.Equal(l.Init.Rules(), rules) || l.Init.Version() != version {
		t.Fatalf("refused install moved newton_init: %d rules version %d, was %d version %d",
			len(l.Init.Rules()), l.Init.Version(), len(rules), version)
	}
	if !slices.Equal(eng.Programs(), progs) || l.TotalRuleEntries() != entries ||
		eng.StateHostBytes() != bytes || l.BankAt(3, 0).Admitted() != admitted || footprint() != fp {
		t.Fatalf("refused install left state: %d programs, %d entries, %d host bytes, %d admitted, %+v; was %d, %d, %d, %d, %+v",
			len(eng.Programs()), l.TotalRuleEntries(), eng.StateHostBytes(), l.BankAt(3, 0).Admitted(), footprint(),
			len(progs), entries, bytes, admitted, fp)
	}
	if err := eng.Remove(1); err != nil {
		t.Fatal(err)
	}
	if err := eng.Install(prog(programs)); err != nil {
		t.Fatalf("install after a removal made room: %v", err)
	}
}

// TestNewtonFinFullLeavesNoInitEntry: newton_init is written last, after
// newton_fin has room, so an install refused for a full newton_fin
// leaves no newton_init entry behind (rollback has none to return).
func TestNewtonFinFullLeavesNoInitEntry(t *testing.T) {
	l := compactLayout(t)
	eng := NewEngine(l)
	prog := func(qid int) *Program {
		return &Program{QID: qid, Branches: []*BranchProgram{{Init: buildCountProgram(qid, 3, 64).Branches[0].Init}}}
	}
	for qid := 1; qid <= DefaultRulesPerModule; qid++ {
		if err := eng.Install(prog(qid)); err != nil {
			t.Fatalf("install %d: %v", qid, err)
		}
	}
	entries, version := l.Init.Entries(), l.Init.Version()
	if err := eng.Install(prog(DefaultRulesPerModule + 1)); err == nil || !strings.Contains(err.Error(), "newton_fin full") {
		t.Fatalf("install past newton_fin's capacity: %v", err)
	}
	if l.Init.Entries() != entries || l.Init.Version() != version {
		t.Fatalf("refused install moved newton_init: %d entries version %d, was %d version %d",
			l.Init.Entries(), l.Init.Version(), entries, version)
	}
}
