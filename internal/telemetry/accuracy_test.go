package telemetry_test

import (
	"math"
	"net"
	"slices"
	"testing"

	"github.com/newton-net/newton/internal/modules"
	"github.com/newton-net/newton/internal/sketch"
	"github.com/newton-net/newton/internal/telemetry"
)

// accuracySvc starts an analyzer and connects one exporter per switch
// ID, returning the service and the exporters in order.
func accuracySvc(t *testing.T, switches ...string) (*telemetry.Service, []*telemetry.Exporter) {
	t.Helper()
	svc := telemetry.NewService(telemetry.ServiceConfig{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go svc.Serve(ln)
	t.Cleanup(func() { svc.Close() })
	exps := make([]*telemetry.Exporter, len(switches))
	for i, id := range switches {
		exp, err := telemetry.Dial(ln.Addr().String(), telemetry.ExporterConfig{SwitchID: id})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { exp.Close() })
		exps[i] = exp
	}
	return svc, exps
}

// TestShardedBoundEqualsUnsharded is the satellite-1 contract: the
// Count-Min error bound of a sharded deployment must be computed over
// the MERGED stream total — the sum across every contributor — so a
// query sharded over three switches reports exactly the bound a single
// switch seeing all traffic would report. (The old code took N from
// whichever contributor merged last, understating the bound by up to
// the shard count.)
func TestShardedBoundEqualsUnsharded(t *testing.T) {
	// One switch sees the whole stream...
	whole, wExp := accuracySvc(t, "s0")
	if err := wExp[0].ExportSnapshot(3, []modules.BankSnapshot{cmsBank(1, 100, 200, 300, 400)}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "unsharded snapshot merged", func() bool { return whole.Stats().Snapshots == 1 })

	// ...vs three switches splitting the identical stream.
	shard, sExps := accuracySvc(t, "s1", "s2", "s3")
	shard.SetExpected(1, []string{"s1", "s2", "s3"})
	parts := [][]uint32{
		{50, 100, 150, 200},
		{30, 60, 90, 120},
		{20, 40, 60, 80},
	}
	for i, exp := range sExps {
		if err := exp.ExportSnapshot(3, []modules.BankSnapshot{cmsBank(1, parts[i]...)}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "all shard snapshots merged", func() bool { return shard.Stats().Snapshots == 3 })

	wa, ok := whole.ObservedAccuracy(1, 3, 50)
	if !ok {
		t.Fatal("no unsharded accuracy estimate")
	}
	sa, ok := shard.ObservedAccuracy(1, 3, 50)
	if !ok {
		t.Fatal("no sharded accuracy estimate")
	}
	if wa.StreamTotal != 1000 || sa.StreamTotal != wa.StreamTotal {
		t.Fatalf("StreamTotal: unsharded %d, sharded %d, want both 1000", wa.StreamTotal, sa.StreamTotal)
	}
	if sa.AbsErr != wa.AbsErr || sa.Eps != wa.Eps || sa.RelErr != wa.RelErr {
		t.Fatalf("sharded bound (abs=%g eps=%g rel=%g) != unsharded (abs=%g eps=%g rel=%g)",
			sa.AbsErr, sa.Eps, sa.RelErr, wa.AbsErr, wa.Eps, wa.RelErr)
	}
	wantAbs := sketch.CMSAbsError(4, 1000)
	if wa.AbsErr != wantAbs {
		t.Fatalf("AbsErr = %g, want e*1000/4 = %g", wa.AbsErr, wantAbs)
	}
	if want := wantAbs / 50; wa.RelErr != want {
		t.Fatalf("RelErr = %g, want %g", wa.RelErr, want)
	}
	if sa.Partial {
		t.Fatal("fully-contributed sharded epoch must not be partial")
	}
}

// TestObservedAccuracyBloomFPP: a distinct filter's false-positive
// probability is estimated from the merged fill ratios, and prediction
// at double width halves each row's fill.
func TestObservedAccuracyBloomFPP(t *testing.T) {
	svc, exps := accuracySvc(t, "s1")
	banks := []modules.BankSnapshot{
		cmsBank(1, 10, 20, 30, 40),
		{QueryID: 1, Kind: modules.BankBloomRow, Algo: sketch.CRC32IEEE, Range: 1 << 16,
			Row: 1, Width: 4, Bits: []uint64{0b0011}},
		{QueryID: 1, Kind: modules.BankBloomRow, Algo: sketch.CRC32IEEE, Range: 1 << 16,
			Row: 2, Width: 4, Bits: []uint64{0b0010}},
	}
	if err := exps[0].ExportSnapshot(5, banks); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "snapshot merged", func() bool { return svc.Stats().Snapshots == 1 })

	qa, ok := svc.ObservedAccuracy(1, 5, 0)
	if !ok {
		t.Fatal("no accuracy estimate")
	}
	if want := 0.5 * 0.25; math.Abs(qa.FPP-want) > 1e-12 {
		t.Fatalf("FPP = %g, want %g", qa.FPP, want)
	}
	if qa.BloomRows != 2 {
		t.Fatalf("BloomRows = %d, want 2", qa.BloomRows)
	}
	// Scale defaulted to the stream total.
	if qa.Scale != 100 || qa.StreamTotal != 100 {
		t.Fatalf("Scale/StreamTotal = %d/%d, want 100/100", qa.Scale, qa.StreamTotal)
	}
	// Observed is the worse of CMS relerr and FPP.
	if got := qa.Observed(); got != math.Max(qa.RelErr, qa.FPP) {
		t.Fatalf("Observed = %g, want max(%g, %g)", got, qa.RelErr, qa.FPP)
	}
	// Doubling the width must halve the CMS error and quarter this FPP
	// (each of the two fills halves).
	pred := qa.PredictedAtWidth(8)
	if want := math.Max(qa.RelErr/2, 0.25*0.125); math.Abs(pred-want) > 1e-12 {
		t.Fatalf("PredictedAtWidth(8) = %g, want %g", pred, want)
	}
}

// TestResizeMarksTransitionEpoch is the satellite-3 provenance
// contract: after the controller announces a width resize, the first
// epoch merged at the query's new frontier reads Partial even with
// every contributor present — its banks filled from mid-window restarts
// — and the next epoch is clean again.
func TestResizeMarksTransitionEpoch(t *testing.T) {
	svc, exps := accuracySvc(t, "s1")
	svc.SetExpected(1, []string{"s1"})

	if err := exps[0].ExportSnapshot(3, []modules.BankSnapshot{cmsBank(1, 1, 2, 3, 4)}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "pre-resize snapshot merged", func() bool { return svc.Stats().Snapshots == 1 })

	svc.NoteResize(1)
	if err := exps[0].ExportSnapshot(4, []modules.BankSnapshot{cmsBank(1, 1, 2, 3, 4, 5, 6, 7, 8)}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "transition snapshot merged", func() bool { return svc.Stats().Snapshots == 2 })

	partial, missing, merged := svc.EpochStatus(1, 4)
	if !partial || len(missing) != 0 || merged != 1 {
		t.Fatalf("transition epoch: partial=%v missing=%v merged=%d, want partial with no missing", partial, missing, merged)
	}
	qa, ok := svc.ObservedAccuracy(1, 4, 0)
	if !ok || !qa.Transition || !qa.Partial {
		t.Fatalf("ObservedAccuracy(epoch 4) = %+v ok=%v, want Transition+Partial", qa, ok)
	}
	if got := svc.Stats().WidthTransitions; got != 1 {
		t.Fatalf("WidthTransitions = %d, want 1", got)
	}
	// The settled frontier skips the transition epoch.
	if e, ok := svc.LatestSettledEpoch(1); !ok || e != 3 {
		t.Fatalf("LatestSettledEpoch = %d/%v, want 3", e, ok)
	}

	// The next epoch carries only post-resize state: clean again.
	if err := exps[0].ExportSnapshot(5, []modules.BankSnapshot{cmsBank(1, 2, 4, 6, 8, 10, 12, 14, 16)}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "post-resize snapshot merged", func() bool { return svc.Stats().Snapshots == 3 })
	if partial, _, _ := svc.EpochStatus(1, 5); partial {
		t.Fatal("first full post-resize epoch must not be partial")
	}
	if e, ok := svc.LatestSettledEpoch(1); !ok || e != 5 {
		t.Fatalf("LatestSettledEpoch = %d/%v, want 5", e, ok)
	}
}

// TestGeometryConflictReplacesNotMixes: when two bank geometries reach
// the same epoch (a resize racing an epoch roll), the later one
// replaces the resident merge — never a silent skip, never a
// mixed-width sum — and the epoch is flagged as a transition.
func TestGeometryConflictReplacesNotMixes(t *testing.T) {
	svc, exps := accuracySvc(t, "s1", "s2")
	svc.SetExpected(1, []string{"s1", "s2"})

	if err := exps[0].ExportSnapshot(3, []modules.BankSnapshot{cmsBank(1, 1, 2, 3, 4)}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "old-geometry snapshot merged", func() bool { return svc.Stats().Snapshots == 1 })
	if err := exps[1].ExportSnapshot(3, []modules.BankSnapshot{cmsBank(1, 10, 20, 30, 40, 50, 60, 70, 80)}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "new-geometry snapshot merged", func() bool { return svc.Stats().Snapshots == 2 })

	rows := svc.MergedRows(1, 0, 3)
	if len(rows) != 1 {
		t.Fatalf("MergedRows = %d banks, want 1", len(rows))
	}
	m := rows[0]
	if m.Width != 8 || len(m.Values) != 8 {
		t.Fatalf("resident bank width = %d (%d values), want later geometry 8", m.Width, len(m.Values))
	}
	if m.Values[0] != 10 {
		t.Fatalf("Values[0] = %d, want 10 — mixed-width merge detected", m.Values[0])
	}
	if len(m.Switches) != 1 || m.Switches[0] != "s2" {
		t.Fatalf("Switches = %v, want provenance reset to [s2]", m.Switches)
	}
	if !m.Partial || !m.Transition {
		t.Fatalf("conflicted epoch: Partial=%v Transition=%v, want both true", m.Partial, m.Transition)
	}
	st := svc.Stats()
	if st.GeometryConflicts != 1 || st.WidthTransitions != 1 {
		t.Fatalf("GeometryConflicts=%d WidthTransitions=%d, want 1/1", st.GeometryConflicts, st.WidthTransitions)
	}
	if _, ok := svc.LatestSettledEpoch(1); ok {
		t.Fatal("a lone conflicted epoch must not count as settled")
	}
}

// TestKindConflictReplacesNotMixes: a bank of the same width but the
// other kind in the same epoch — a query reinstalled with a Bloom row
// where a Count-Min row was — is a geometry conflict too: the merged
// row is counters or bits, never both, and the later kind replaces the
// resident one.
func TestKindConflictReplacesNotMixes(t *testing.T) {
	svc, exps := accuracySvc(t, "s1", "s2")
	svc.SetExpected(1, []string{"s1", "s2"})
	if err := exps[0].ExportSnapshot(3, []modules.BankSnapshot{cmsBank(1, 5, 0, 7, 9)}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "Count-Min snapshot merged", func() bool { return svc.Stats().Snapshots == 1 })
	bloom := cmsBank(1, 0, 0, 0, 0)
	bloom.Kind, bloom.Values, bloom.Bits = modules.BankBloomRow, nil, []uint64{0b0110}
	if err := exps[1].ExportSnapshot(3, []modules.BankSnapshot{bloom}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "Bloom snapshot merged", func() bool { return svc.Stats().Snapshots == 2 })

	rows := svc.MergedRows(1, 0, 3)
	if len(rows) != 1 || rows[0].Kind != modules.BankBloomRow || !slices.Equal(rows[0].Values, []uint64{0, 1, 1, 0}) {
		t.Fatalf("MergedRows = %+v, want s2's Bloom row 0 1 1 0", rows)
	}
	if m := rows[0]; len(m.Switches) != 1 || m.Switches[0] != "s2" || !m.Transition {
		t.Fatalf("Switches = %v, Transition = %v: want [s2], true", m.Switches, m.Transition)
	}
	if st := svc.Stats(); st.GeometryConflicts != 1 {
		t.Fatalf("GeometryConflicts = %d, want 1", st.GeometryConflicts)
	}
}
