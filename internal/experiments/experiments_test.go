package experiments

import (
	"strings"
	"testing"
	"time"

	"github.com/newton-net/newton/internal/baselines"
	"github.com/newton-net/newton/internal/dataplane"
)

func TestTable3MatchesPaperCalibration(t *testing.T) {
	r := Table3()
	// Per-stage: compact is exactly 4x the naive baseline.
	for k := dataplane.ResourceKind(0); k < dataplane.NumResourceKinds; k++ {
		if r.PerStageBaseline[k] == 0 {
			continue
		}
		ratio := r.PerStageCompact[k] / r.PerStageBaseline[k]
		if ratio < 3.99 || ratio > 4.01 {
			t.Errorf("%v: compact/baseline = %.3f, want 4", k, ratio)
		}
	}
	// Published Table 3 anchor points (±10%).
	anchors := []struct {
		name string
		got  float64
		want float64
	}{
		{"compact crossbar", r.PerStageCompact[dataplane.Crossbar], 0.04756},
		{"compact VLIW", r.PerStageCompact[dataplane.VLIW], 0.1690},
		{"H crossbar", r.PerModule[1][dataplane.Crossbar], 0.02682},
		{"S SRAM", r.PerModule[2][dataplane.SRAM], 0.03521},
		{"S SALU", r.PerModule[2][dataplane.SALU], 0.05555},
		{"R TCAM", r.PerModule[3][dataplane.TCAM], 0.04301},
		{"R VLIW", r.PerModule[3][dataplane.VLIW], 0.1056},
		{"filter crossbar", r.PerPrimitive[0][dataplane.Crossbar], 0.000186},
		{"reduce crossbar", r.PerPrimitive[2][dataplane.Crossbar], 0.000371},
		{"distinct crossbar", r.PerPrimitive[3][dataplane.Crossbar], 0.000557},
	}
	for _, a := range anchors {
		if a.got < a.want*0.9 || a.got > a.want*1.1 {
			t.Errorf("%s = %.6f, paper says %.6f", a.name, a.got, a.want)
		}
	}
	// Primitive costs order: filter = map < reduce < distinct.
	if r.PerPrimitive[0] != r.PerPrimitive[1] {
		t.Error("filter and map should amortize identically")
	}
	if r.PerPrimitive[2][dataplane.SRAM] <= r.PerPrimitive[0][dataplane.SRAM] {
		t.Error("reduce should cost more than filter")
	}
	if r.PerPrimitive[3][dataplane.SRAM] <= r.PerPrimitive[2][dataplane.SRAM] {
		t.Error("distinct should cost more than reduce")
	}
	if !strings.Contains(r.String(), "Per-primitive") {
		t.Error("String missing sections")
	}
}

func TestFig15ReproducesReductions(t *testing.T) {
	r := Fig15Compilation()
	if len(r.Rows) != 9 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	if r.MinModuleReduction < 0.41 {
		t.Errorf("min module reduction %.3f (paper: 0.424)", r.MinModuleReduction)
	}
	if r.MinStageReduction < 0.69 {
		t.Errorf("min stage reduction %.3f (paper: 0.697)", r.MinStageReduction)
	}
	for _, row := range r.Rows {
		// Monotonic through Opt1 and Opt2.
		if row.Modules[1] > row.Modules[0] || row.Modules[2] > row.Modules[1] {
			t.Errorf("%s module counts not monotone: %v", row.Query, row.Modules)
		}
		if row.Stages[3] >= row.Stages[2] {
			t.Errorf("%s Opt3 did not cut stages: %v", row.Query, row.Stages)
		}
		if row.SonataTables == 0 || row.SonataStages == 0 {
			t.Errorf("%s missing Sonata estimate", row.Query)
		}
	}
	// Q6's multiplexing effect (§6.4): more primitives than Q8 but fewer
	// optimized stages.
	q6, q8 := r.Rows[5], r.Rows[7]
	if q6.Primitives <= q8.Primitives {
		t.Fatal("catalog drifted: Q6 should have more primitives than Q8")
	}
	if q6.Stages[3] >= q8.Stages[3] {
		t.Errorf("Q6 optimized stages %d should undercut Q8's %d", q6.Stages[3], q8.Stages[3])
	}
	if !strings.Contains(r.String(), "minimum reductions") {
		t.Error("String missing summary")
	}
}

func TestFig16MultiplexingShape(t *testing.T) {
	r := Fig16Multiplexing([]int{1, 10, 100})
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	one, ten, hundred := r.Rows[0], r.Rows[1], r.Rows[2]
	// Sonata and S-Newton linear.
	if ten.SonataStages != 10*one.SonataStages || hundred.SNewtonModules != 100*one.SNewtonModules {
		t.Error("chained systems should scale linearly")
	}
	// P-Newton constant modules/stages; rules linear.
	if hundred.PNewtonModules != one.PNewtonModules || hundred.PNewtonStages != one.PNewtonStages {
		t.Errorf("P-Newton modules/stages grew: %+v vs %+v", hundred, one)
	}
	if hundred.PNewtonRules <= 50*one.PNewtonRules {
		t.Errorf("P-Newton rules should grow with queries: %d vs %d", hundred.PNewtonRules, one.PNewtonRules)
	}
	if hundred.PNewtonModules >= hundred.SNewtonModules/10 {
		t.Error("multiplexing advantage should be an order of magnitude at 100 queries")
	}
	if !strings.Contains(r.String(), "P-Newton") {
		t.Error("String missing columns")
	}
}

func TestFig17PlacementShape(t *testing.T) {
	r := Fig17Placement()
	if len(r.A) < 3 || len(r.B) < 3 {
		t.Fatalf("panels too small: %d/%d", len(r.A), len(r.B))
	}
	// Panel (a): total entries grow with required switches on both
	// topologies.
	first, last := r.A[0], r.A[len(r.A)-1]
	if last.FatTreeTotal <= first.FatTreeTotal || last.ISPTotal <= first.ISPTotal {
		t.Errorf("total entries should grow with partitions: %+v -> %+v", first, last)
	}
	// Panel (b): total linear with scale, average stable.
	b0, bN := r.B[0], r.B[len(r.B)-1]
	scale := float64(bN.Switches) / float64(b0.Switches)
	growth := float64(bN.Total) / float64(b0.Total)
	if growth < scale*0.8 || growth > scale*1.2 {
		t.Errorf("total growth %.2f should track switch growth %.2f", growth, scale)
	}
	if bN.Avg > b0.Avg*1.2 || bN.Avg < b0.Avg*0.8 {
		t.Errorf("average entries should stabilize: %.2f -> %.2f", b0.Avg, bN.Avg)
	}
	if !strings.Contains(r.String(), "fat-tree scale") {
		t.Error("String missing panel b")
	}
}

// TestFig17DeployMatchesPlan pins the deploy-path audit: on every row
// the entries the engines hold equal the entries the plan promised, and
// the four rows are the four EXPERIMENTS.md prints.
func TestFig17DeployMatchesPlan(t *testing.T) {
	want := []Fig17DeployRow{
		{Topology: "isp", StagesPerSwitch: 6, Partitions: 2, Switches: 8, PlannedEntries: 152},
		{Topology: "isp", StagesPerSwitch: 4, Partitions: 3, Switches: 15, PlannedEntries: 268},
		{Topology: "isp", StagesPerSwitch: 3, Partitions: 4, Switches: 23, PlannedEntries: 424},
		{Topology: "fattree4", StagesPerSwitch: 6, Partitions: 2, Switches: 16, PlannedEntries: 216},
	}
	r := Fig17Deploy()
	if len(r.Rows) != len(want) {
		t.Fatalf("%d rows, want %d", len(r.Rows), len(want))
	}
	for i, w := range want {
		w.InstalledEntries, w.Match = w.PlannedEntries, true
		if got := r.Rows[i]; got != w {
			t.Errorf("row %d = %+v, want %+v", i, got, w)
		}
	}
}

func TestFig10InterruptionShape(t *testing.T) {
	r := Fig10Interruption(500, 20, 10000)
	// Newton never drops; Sonata drops for seconds.
	if r.NewtonDropped != 0 {
		t.Errorf("Newton dropped %d packets during install", r.NewtonDropped)
	}
	if r.SonataDropped == 0 {
		t.Error("Sonata reboot dropped nothing")
	}
	if r.SonataOutage < 7*time.Second {
		t.Errorf("Sonata outage %v implausibly short", r.SonataOutage)
	}
	if r.NewtonOpDelay > 50*time.Millisecond {
		t.Errorf("Newton op delay %v too long", r.NewtonOpDelay)
	}
	// Panel (a): Sonata throughput hits zero in some bucket; Newton's
	// never does.
	zeroed := false
	for _, v := range r.SonataSeries {
		if v == 0 {
			zeroed = true
		}
	}
	if !zeroed {
		t.Error("Sonata series never hit zero during reboot")
	}
	for i, v := range r.NewtonSeries {
		if v == 0 {
			t.Errorf("Newton throughput zeroed at second %d", i)
		}
	}
	// Panel (b): interruption grows linearly; ~30s at 60K entries.
	n := len(r.Entries)
	if r.Interruption[n-1] <= r.Interruption[0] {
		t.Error("interruption not growing with entries")
	}
	last := r.Interruption[n-1]
	if last < 27*time.Second || last > 33*time.Second {
		t.Errorf("interruption at 60K = %v, paper says ~30 s", last)
	}
	if !strings.Contains(r.String(), "Sonata interruption") {
		t.Error("String missing panel b")
	}
}

func TestFig11DelayEnvelope(t *testing.T) {
	r := Fig11OperationDelay(25)
	if len(r.Rows) != 9 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.Max > 25*time.Millisecond {
			t.Errorf("%s install max %v exceeds the paper's envelope", row.Query, row.Max)
		}
		if row.RemoveMax > 25*time.Millisecond {
			t.Errorf("%s remove max %v too long", row.Query, row.RemoveMax)
		}
	}
	// Q1 is the cheapest (~5 ms).
	if r.Rows[0].InstallAvg > 7*time.Millisecond {
		t.Errorf("Q1 install avg %v, paper says ~5 ms", r.Rows[0].InstallAvg)
	}
	if !strings.Contains(r.String(), "Q9") {
		t.Error("String missing rows")
	}
}

func TestFig12OverheadShape(t *testing.T) {
	r := Fig12Overhead(800, 300*time.Millisecond)
	byKey := map[string]float64{}
	for _, row := range r.Rows {
		byKey[row.Trace+"/"+row.System.String()] = row.Overhead
	}
	for _, tr := range []string{"CAIDA", "MAWI"} {
		newton := byKey[tr+"/Newton"]
		turbo := byKey[tr+"/TurboFlow"]
		star := byKey[tr+"/*Flow"]
		if newton <= 0 {
			t.Fatalf("%s: Newton exported nothing", tr)
		}
		// Two orders of magnitude below TurboFlow and *Flow.
		if newton*20 > turbo {
			t.Errorf("%s: Newton %.2e not far below TurboFlow %.2e", tr, newton, turbo)
		}
		if star < turbo {
			t.Errorf("%s: *Flow should exceed TurboFlow", tr)
		}
	}
	if !strings.Contains(r.String(), "Msgs/packet") {
		t.Error("String missing header")
	}
}

func TestFig13CQEShape(t *testing.T) {
	r := Fig13CQEOverhead(4)
	newton := map[int]int{}
	sonata := map[int]int{}
	for _, row := range r.Rows {
		switch row.System {
		case baselines.Newton:
			newton[row.Hops] = row.Messages
		case baselines.Sonata:
			sonata[row.Hops] = row.Messages
		}
	}
	// Newton flat; Sonata linear.
	if newton[4] > newton[1]+1 {
		t.Errorf("Newton messages grew with hops: %v", newton)
	}
	if sonata[4] != 4*sonata[1] {
		t.Errorf("Sonata should be linear in hops: %v", sonata)
	}
	if !strings.Contains(r.String(), "Newton") {
		t.Error("String missing rows")
	}
}

func TestFig14AccuracyShape(t *testing.T) {
	r := Fig14Accuracy([]uint32{256, 2048}, 3)
	get := func(sys string, w uint32) *Fig14Row {
		for i := range r.Rows {
			if r.Rows[i].System == sys && r.Rows[i].Registers == w {
				return &r.Rows[i]
			}
		}
		t.Fatalf("missing row %s/%d", sys, w)
		return nil
	}
	// Count-Min never undercounts, so recall stays high — but not
	// always 1 at tiny widths: the report-once exact-match crossing can
	// be skipped when a colliding key inflates the estimate between a
	// victim's packets (the same artifact afflicts Sonata's accurate
	// exportation on hardware).
	for _, row := range r.Rows {
		if row.Recall < 0.8 {
			t.Errorf("%s@%d recall %.2f too low", row.System, row.Registers, row.Recall)
		}
		if row.Registers >= 2048 && row.Recall < 1 {
			t.Errorf("%s@%d recall %.2f < 1 at ample width", row.System, row.Registers, row.Recall)
		}
	}
	// Pooling registers across switches improves accuracy at small
	// arrays (the paper's ~350% claim at 256 registers)...
	s256 := get("Sonata", 256)
	n3 := get("Newton_3", 256)
	if n3.Accuracy <= s256.Accuracy {
		t.Errorf("CQE did not improve accuracy at 256 registers: %.3f vs %.3f", n3.Accuracy, s256.Accuracy)
	}
	// ...and larger arrays improve every system.
	if get("Sonata", 2048).Accuracy < s256.Accuracy {
		t.Error("more registers should not hurt Sonata")
	}
	if !strings.Contains(r.String(), "Newton_3") {
		t.Error("String missing series")
	}
}

func TestAblation(t *testing.T) {
	r := Ablation()
	if len(r.RowsMeanError) != 4 || len(r.BloomFPR) != 4 {
		t.Fatalf("rows = %d/%d", len(r.RowsMeanError), len(r.BloomFPR))
	}
	// Two rows cut the tail error sharply on an elephant-heavy stream
	// (a mouse must collide with an elephant in BOTH rows)...
	if r.RowsP99Error[1] >= r.RowsP99Error[0] {
		t.Errorf("2-row p99 (%.2f) should beat 1-row p99 (%.2f)", r.RowsP99Error[1], r.RowsP99Error[0])
	}
	// ...while every error stays non-negative (CM cannot undercount).
	for i := range r.RowsMeanError {
		if r.RowsMeanError[i] < 0 || r.RowsP99Error[i] < 0 {
			t.Errorf("rows=%d negative error (CM cannot undercount)", i+1)
		}
	}
	if r.CompactBanks != 24 || r.NaiveBanks != 3 {
		t.Errorf("banks = %d/%d, want 24/3", r.CompactBanks, r.NaiveBanks)
	}
	if r.RegisterRatio != 8 {
		t.Errorf("register ratio = %.1f, want 8", r.RegisterRatio)
	}
	if !strings.Contains(r.String(), "state banks") {
		t.Error("String missing layout study")
	}
}
