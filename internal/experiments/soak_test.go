package experiments

import (
	"testing"

	"github.com/newton-net/newton/internal/orchestrator"
)

// TestSoakSmoke is the CI-sized churn soak: an 8-switch fleet under
// multi-tenant intent churn, operator drains, and seeded kills,
// partitions, and stalls — with the health monitor (never a manual
// Reconverge) driving every drain and re-admission. The run's own
// Violations list carries the assertions: bounded heap growth,
// goroutine stability, every kill auto-drained and re-admitted, a fully
// reconverged end state, zero cross-tenant provenance mixups, and
// reports reaching the analyzer, and a switch whose exporter closed
// while its agent answered drained for its silence after the
// MaxSilence rounds and the ladder. The test adds that recovery takes
// exactly the monitor's ladder, in rounds: a kill drains on the
// SuspectAfter+DownAfter-th round after it, and a restart is re-admitted
// on the RecoverAfter-th. A second run at the seed logs the same bytes.
func TestSoakSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("soak run is seconds-long")
	}
	seed := faultSeed(t)
	res := Soak(SoakConfig{Seed: seed})
	t.Logf("\n%s", res)
	sameLog(t, seed, res.Log, Soak(SoakConfig{Seed: seed}).Log)

	for _, v := range res.Violations {
		t.Error(v)
	}
	if res.Kills == 0 {
		t.Error("churn schedule injected no kills; soak did not exercise self-healing")
	}
	if res.Converges == 0 {
		t.Error("soak never converged the fleet")
	}
	if res.Silenced == "" {
		t.Error("no switch hosted work when the run closed an exporter; the liveness signal went untested")
	}
	if len(res.MTTRDrain) != res.Kills || len(res.MTTRReadmit) != res.Kills {
		t.Errorf("%d kills, %d drains and %d re-admissions accounted", res.Kills, len(res.MTTRDrain), len(res.MTTRReadmit))
	}
	for i, n := range res.MTTRDrain {
		if want := orchestrator.SuspectAfter + soakDownAfter; n != want {
			t.Errorf("kill %d drained %d rounds after it, want %d", i+1, n, want)
		}
	}
	for i, n := range res.MTTRReadmit {
		if n != soakRecoverAfter {
			t.Errorf("restart %d re-admitted %d rounds after it, want %d", i+1, n, soakRecoverAfter)
		}
	}
}
