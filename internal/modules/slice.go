package modules

import (
	"fmt"
	"slices"
)

// SliceProgram partitions a compiled program for cross-switch query
// execution (§5.1's model parallelism): partition k receives the ops of
// logical stages (k·stagesPer, (k+1)·stagesPer], rebased to start at
// stage 1, so "a query with 10 stages needs 4 3-stage switches". Ops are
// deep-copied: each partition installs independently on its own switch.
//
// Cross-branch state reads must land in the same partition as the bank
// they read (state lives on one switch); slicing that would separate
// them is rejected — the controller then either uses fewer, larger
// partitions or defers the tail to the software analyzer.
func SliceProgram(p *Program, stagesPer int) ([]*Program, error) {
	if stagesPer <= 0 {
		return nil, fmt.Errorf("modules: non-positive partition size")
	}
	total := p.NumStages()
	if total == 0 {
		return []*Program{cloneProgram(p, 0, 1<<30, 0)}, nil
	}
	m := (total + stagesPer - 1) / stagesPer

	// Validate cross-read colocation: a reader and its target row-0 bank
	// must share a partition.
	for bi, b := range p.Branches {
		for _, op := range b.Ops {
			if op.Kind != ModS || op.S == nil || !op.S.CrossRead {
				continue
			}
			tgt := row0Stage(p, op.S.ReadBranch)
			if tgt == 0 {
				return nil, fmt.Errorf("modules: branch %d reads row0 of branch %d, which has none", bi, op.S.ReadBranch)
			}
			if (op.Stage-1)/stagesPer != (tgt-1)/stagesPer {
				return nil, fmt.Errorf("modules: %d-stage partitions separate a cross-branch read (stage %d) from its bank (stage %d); use larger partitions or defer to the analyzer",
					stagesPer, op.Stage, tgt)
			}
		}
	}

	parts := make([]*Program, m)
	for k := 0; k < m; k++ {
		parts[k] = cloneProgram(p, k*stagesPer, (k+1)*stagesPer, k)
		parts[k].Part, parts[k].TotalParts = k, m
	}
	return parts, nil
}

// row0Stage finds the stage of a branch's last row-0 state bank.
func row0Stage(p *Program, branch int) int {
	if branch < 0 || branch >= len(p.Branches) {
		return 0
	}
	s := 0
	for _, op := range p.Branches[branch].Ops {
		if op.Kind == ModS && op.S != nil && op.S.Row0 {
			s = op.Stage
		}
	}
	return s
}

// cloneProgram deep-copies the ops with logical stages in (lo, hi],
// rebasing them by -lo. Partitions after the first re-derive their
// operation keys and hash results from the packet headers — the result
// snapshot carries only state and global results — so the last K and H
// of each metadata set used by the partition are cloned in front (two
// extra stages), exactly why the SP header can stay at 12 bytes.
func cloneProgram(p *Program, lo, hi, part int) *Program {
	out := &Program{QID: p.QID, Name: fmt.Sprintf("%s/part%d", p.Name, part)}
	for _, b := range p.Branches {
		nb := &BranchProgram{Init: b.Init}
		var body []*Op
		usesSet := map[int]bool{}
		for _, op := range b.Ops {
			if op.Stage <= lo || op.Stage > hi {
				continue
			}
			body = append(body, op)
			usesSet[op.Set&1] = true
		}
		shift := -lo
		if lo > 0 && len(body) > 0 {
			// Find the last K and H per needed set before the boundary.
			lastK, lastH := map[int]*Op{}, map[int]*Op{}
			for _, op := range b.Ops {
				if op.Stage > lo {
					break
				}
				switch op.Kind {
				case ModK:
					lastK[op.Set&1] = op
				case ModH:
					lastH[op.Set&1] = op
				}
			}
			prepended := false
			for set := 0; set < 2; set++ {
				if !usesSet[set] {
					continue
				}
				if k := lastK[set]; k != nil {
					ck := cloneOp(k, 0)
					ck.Stage = 1
					nb.Ops = append(nb.Ops, ck)
					prepended = true
				}
				if h := lastH[set]; h != nil {
					ch := cloneOp(h, 0)
					ch.Stage = 2
					nb.Ops = append(nb.Ops, ch)
					prepended = true
				}
			}
			if prepended {
				shift += 2
			}
		}
		for _, op := range body {
			nb.Ops = append(nb.Ops, cloneOp(op, shift))
		}
		out.Branches = append(out.Branches, nb)
	}
	return out
}

// Clone returns a deep copy of p that shares no branch, op or module
// config with it and carries none of an install's bindings. Install
// binds registers and masks into the ops it is given, so each engine
// installs a program of its own: a controller that hands one program to
// several in-process engines hands each a Clone.
func (p *Program) Clone() *Program {
	out := &Program{QID: p.QID, Name: p.Name, Part: p.Part, TotalParts: p.TotalParts,
		Branches: slices.Clone(p.Branches)}
	for i, b := range out.Branches {
		if b == nil {
			continue // wellFormed refuses it at install
		}
		nb := &BranchProgram{Init: b.Init, Ops: slices.Clone(b.Ops)}
		for j, op := range nb.Ops {
			if op != nil {
				nb.Ops[j] = cloneOp(op, 0)
			}
		}
		out.Branches[i] = nb
	}
	return out
}

func cloneOp(op *Op, shift int) *Op {
	cp := &Op{Kind: op.Kind, Set: op.Set, Stage: op.Stage + shift}
	if op.K != nil {
		k := *op.K
		k.idx = 0
		cp.K = &k
	}
	if op.H != nil {
		h := *op.H
		cp.H = &h
	}
	if op.S != nil {
		s := *op.S
		s.array, s.width = nil, 0
		cp.S = &s
	}
	if op.R != nil {
		r := RConfig{OnGlobal: op.R.OnGlobal}
		for _, e := range op.R.Entries {
			ne := REntry{Lo: e.Lo, Hi: e.Hi}
			ne.Actions = append(ne.Actions, e.Actions...)
			r.Entries = append(r.Entries, ne)
		}
		cp.R = &r
	}
	return cp
}
