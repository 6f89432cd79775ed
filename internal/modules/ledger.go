package modules

import (
	"fmt"
	"slices"
)

// Ledger is one device's resource accounting: the registers admitted
// against each state bank, the rules each (stage, suite, kind) module
// holds, and the newton_init and newton_fin entries. A layout keeps the
// ledger its engine installs against — Install charges a program before
// it allocates a register or publishes a rule, and Remove refunds it —
// and admission (scheduler.Tracker) keeps one per switch it plans for,
// so "does this program fit this device" is one piece of code. The zero
// value is unusable; call NewLedger.
type Ledger struct {
	kind      LayoutKind
	stages    int
	arraySize uint32 // registers a state bank admits
	capacity  int    // rules a module holds, and newton_fin entries

	// regs holds each bank's admitted registers and rules each module's
	// rules, indexed by bank (stage, suite) and module (bank, kind). A
	// bank's count is 64-bit so a charge's widths (32-bit each, from
	// whoever sent the program) sum without wrapping past arraySize.
	regs      []uint64
	rules     []int
	init, fin int // newton_init entries (one per branch), newton_fin (one per program)

	// parted holds the charged programs of more than one partition. One
	// result snapshot rides a packet, so a partition whose newton_init
	// entries match a packet that another query's partition matches
	// would silence one of the two: Charge refuses it.
	parted []*Program
}

// NewLedger starts empty accounting for a kind layout of the given
// stages, arraySize registers per state bank and rulesPerModule rules
// per module (and newton_fin entries; newton_init holds
// InitCapacityFactor times as many).
func NewLedger(kind LayoutKind, stages int, arraySize uint32, rulesPerModule int) Ledger {
	banks := stages * compactSuites
	return Ledger{kind: kind, stages: stages, arraySize: arraySize, capacity: rulesPerModule,
		regs: make([]uint64, banks), rules: make([]int, banks*int(NumKinds)), parted: []*Program{}}
}

// hosts reports whether (1-based) stage, suite u has a module of kind k:
// the compact layout hosts every kind in both suites, the naive one only
// kind (stage-1) mod 4 in one suite.
func (l *Ledger) hosts(stage, u int, k Kind) bool {
	if stage < 1 || stage > l.stages || u < 0 || u >= l.kind.SuitesPerStage() {
		return false
	}
	return l.kind == LayoutCompact || Kind((stage-1)%int(NumKinds)) == k
}

// bank is the index of (stage, suite u)'s state bank in regs; module
// that of its kind k module in rules.
func bank(stage, u int) int           { return (stage-1)*compactSuites + u }
func module(stage, u int, k Kind) int { return bank(stage, u)*int(NumKinds) + int(k) }

// initCapacity is how many entries newton_init holds.
func (l *Ledger) initCapacity() int { return l.capacity * InitCapacityFactor }

// registers is what (stage, suite u)'s state bank has admitted.
func (l *Ledger) registers(stage, u int) uint64 { return l.regs[bank(stage, u)] }

// Fits reports whether p would be charged: nil, or Charge's refusal.
// The ledger is left as it was either way.
func (l *Ledger) Fits(p *Program) error {
	err := l.Charge(p)
	if err == nil {
		l.Refund(p)
	}
	return err
}

// Charge takes p's registers, module rules, newton_init entries (one per
// branch) and newton_fin entry, or refuses p and changes nothing. The
// refusal names the first overflow: the stage count, then a module the
// layout does not host, then a state bank, then a module, each in op
// order, then newton_init, then newton_fin, then (for a partition) the
// first charged partition of another query whose newton_init entries
// match a packet p's do — the same one on every run. Queries are told
// apart by QID: a switch may host several partitions of one query, since
// only the one a packet's snapshot names runs on it.
func (l *Ledger) Charge(p *Program) error {
	if s := p.NumStages(); s > l.stages {
		return fmt.Errorf("needs %d stages, device has %d", s, l.stages)
	}
	for _, b := range p.Branches {
		for _, op := range b.Ops {
			if !l.hosts(op.Stage, op.Set, op.Kind) {
				return fmt.Errorf("no %v module at stage %d suite %d", op.Kind, op.Stage, op.Set)
			}
		}
	}
	l.add(p, 1)
	if err := l.over(p); err != nil {
		l.add(p, -1)
		return err
	}
	if p.TotalParts > 1 {
		if q := l.overlapping(p); q != nil {
			l.add(p, -1)
			return fmt.Errorf("newton_init entries overlap partitioned %s's: %w", q.Name, ErrSharedSnapshot)
		}
		l.parted = append(l.parted, p)
	}
	return nil
}

// overlapping returns the first charged partition of another query
// that shares a packet with partition p, or nil.
func (l *Ledger) overlapping(p *Program) *Program {
	for _, q := range l.parted {
		if q.QID == p.QID {
			continue
		}
		for _, a := range p.Branches {
			for _, b := range q.Branches {
				if a.Init.overlaps(&b.Init) {
					return q
				}
			}
		}
	}
	return nil
}

// Refund returns what Charge took for p.
func (l *Ledger) Refund(p *Program) {
	l.add(p, -1)
	if i := slices.Index(l.parted, p); i >= 0 {
		l.parted = slices.Delete(l.parted, i, i+1)
	}
}

// Reset refunds everything the ledger holds, keeping its storage.
func (l *Ledger) Reset() {
	clear(l.regs)
	clear(l.rules)
	l.init, l.fin = 0, 0
	clear(l.parted)
	l.parted = l.parted[:0]
}

// Clone copies the ledger, so a charge can be tried and discarded.
func (l *Ledger) Clone() Ledger {
	c := *l
	c.regs, c.rules, c.parted = slices.Clone(l.regs), slices.Clone(l.rules), slices.Clone(l.parted)
	return c
}

// add charges (n = 1) or refunds (n = -1) p.
func (l *Ledger) add(p *Program, n int) {
	for _, b := range p.Branches {
		for _, op := range b.Ops {
			l.rules[module(op.Stage, op.Set, op.Kind)] += n
			if op.OwnsRegisters() {
				l.regs[bank(op.Stage, op.Set)] += uint64(n) * uint64(op.Width()) // n = -1 wraps to a subtraction
			}
		}
	}
	l.init += n * len(p.Branches)
	l.fin += n
}

// over names what p, just added, overflows, or returns nil.
func (l *Ledger) over(p *Program) error {
	for _, b := range p.Branches {
		for _, op := range b.Ops {
			if k := bank(op.Stage, op.Set); op.OwnsRegisters() && l.regs[k] > uint64(l.arraySize) {
				need := demand(p, k)
				return fmt.Errorf("state bank at stage %d suite %d exhausted (%d + %d > %d)",
					op.Stage, op.Set, l.regs[k]-need, need, l.arraySize)
			}
		}
	}
	for _, b := range p.Branches {
		for _, op := range b.Ops {
			if l.rules[module(op.Stage, op.Set, op.Kind)] > l.capacity {
				return fmt.Errorf("%v module at stage %d suite %d full (%d rules)", op.Kind, op.Stage, op.Set, l.capacity)
			}
		}
	}
	if l.init > l.initCapacity() {
		return fmt.Errorf("newton_init full (%d entries)", l.initCapacity())
	}
	if l.fin > l.capacity {
		return fmt.Errorf("newton_fin full (%d entries)", l.capacity)
	}
	return nil
}

// demand is the registers p takes in bank k.
func demand(p *Program, k int) uint64 {
	var n uint64
	for _, b := range p.Branches {
		for _, op := range b.Ops {
			if op.OwnsRegisters() && bank(op.Stage, op.Set) == k {
				n += uint64(op.Width())
			}
		}
	}
	return n
}
