package experiments

import (
	"testing"
)

// TestSoakSmoke is the CI-sized churn soak: an 8-switch fleet under
// multi-tenant intent churn, operator drains, and seeded kills,
// partitions, and stalls — with the health monitor (never a manual
// Reconverge) driving every drain and re-admission. The run's own
// Violations list carries the assertions: bounded heap growth,
// goroutine stability, every kill auto-drained and re-admitted, a fully
// reconverged end state, zero cross-tenant provenance mixups, and
// reports reaching the analyzer.
func TestSoakSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("soak run is seconds-long")
	}
	res := Soak(SoakConfig{Seed: faultSeed(t)})
	t.Logf("\n%s", res)

	for _, v := range res.Violations {
		t.Error(v)
	}
	if res.Kills == 0 {
		t.Error("churn schedule injected no kills; soak did not exercise self-healing")
	}
	if res.Converges == 0 {
		t.Error("soak never converged the fleet")
	}
}
