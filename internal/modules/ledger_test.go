package modules

import (
	"reflect"
	"strings"
	"testing"

	"github.com/newton-net/newton/internal/fields"
)

// TestLedgerChargeRefundRoundTrip: Refund is Charge's exact inverse, and
// a refused Charge changes nothing. Over a ledger already holding
// programs, a program charged then refunded leaves the ledger equal to
// what it was; and each kind of refusal — stages, a module the layout
// lacks, a state bank (widths whose 32-bit sum wraps included), a
// module, newton_init, newton_fin — leaves it equal too, naming what
// overflowed.
func TestLedgerChargeRefundRoundTrip(t *testing.T) {
	l := NewLedger(LayoutCompact, 8, 4096, 4)
	for qid, width := range []uint32{1024, 2048} {
		if err := l.Charge(buildCountProgram(qid+1, 3, width)); err != nil {
			t.Fatalf("charging %d registers: %v", width, err)
		}
	}
	kOps := func(n, stage, set int) *Program {
		p := &Program{Branches: []*BranchProgram{{}}}
		for range n {
			p.Branches[0].Ops = append(p.Branches[0].Ops,
				&Op{Kind: ModK, Set: set, Stage: stage, K: &KConfig{Mask: fields.Keep(fields.DstIP)}})
		}
		return p
	}
	// counts is one count_syn branch per width: each an owning op in
	// the bank at stage 3 suite 0.
	counts := func(widths ...uint32) *Program {
		p := &Program{}
		for _, w := range widths {
			p.Branches = append(p.Branches, buildCountProgram(9, 3, w).Branches[0])
		}
		return p
	}
	branches := func(n int) *Program {
		p := &Program{}
		for range n {
			p.Branches = append(p.Branches, &BranchProgram{})
		}
		return p
	}

	before := l.Clone()
	p := buildCountProgram(3, 3, 1024)
	if err := l.Charge(p); err != nil {
		t.Fatalf("charging the last 1024 registers: %v", err)
	}
	if reflect.DeepEqual(l, before) {
		t.Fatal("Charge changed nothing")
	}
	l.Refund(p)
	if !reflect.DeepEqual(l, before) {
		t.Fatalf("Charge then Refund left %+v, want %+v", l, before)
	}

	for _, tc := range []struct {
		p    *Program
		want string
	}{
		{kOps(1, 9, 0), "needs 9 stages, device has 8"},
		{kOps(1, 1, 2), "no K module at stage 1 suite 2"},
		{buildCountProgram(3, 3, 2048), "state bank at stage 3 suite 0 exhausted (3072 + 2048 > 4096)"},
		// Widths that sum to 2^32 in one bank: summed in 32 bits they
		// wrapped to what the bank held and were admitted.
		{counts(0x80000000, 0x80000000), "state bank at stage 3 suite 0 exhausted (3072 + 4294967296 > 4096)"},
		{counts(1<<32 - 3072), "state bank at stage 3 suite 0 exhausted (3072 + 4294964224 > 4096)"},
		{kOps(3, 1, 0), "K module at stage 1 suite 0 full (4 rules)"},
		{branches(15), "newton_init full (16 entries)"},
		{branches(0), ""},
		{branches(0), ""},
		{branches(0), "newton_fin full (4 entries)"},
	} {
		before := l.Clone()
		err := l.Charge(tc.p)
		if tc.want == "" {
			if err != nil {
				t.Fatalf("%d ops in %d branches: %v", tc.p.NumOps(), len(tc.p.Branches), err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("Charge = %v, want %q", err, tc.want)
		}
		if !reflect.DeepEqual(l, before) {
			t.Fatalf("refused Charge (%v) left %+v, want %+v", err, l, before)
		}
		if ferr := l.Fits(tc.p); ferr == nil || ferr.Error() != err.Error() {
			t.Fatalf("Fits = %v, Charge refused with %v", ferr, err)
		}
	}
}
