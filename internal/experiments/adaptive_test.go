package experiments

import "testing"

// TestAdaptiveConvergence is the CI gate for the closed-loop accuracy
// experiment: under the shifting Zipf workload the refiner must bring
// the observed error bound back under the intent's tolerance within
// the round budget after every phase shift, spend strictly less memory
// than static worst-case provisioning, and never flap, re-deploy, or
// mix provenance. A second run logs the same bytes.
func TestAdaptiveConvergence(t *testing.T) {
	res := Adaptive(AdaptiveConfig{})
	if !res.Passed() {
		t.Fatalf("adaptive run failed:\n%s", res)
	}
	sameLog(t, res.Seed, res.Log, Adaptive(AdaptiveConfig{}).Log)
	for ph, n := range res.ConvergedIn {
		if n > adaptiveConvergeWithin {
			t.Errorf("phase %s converged in %d rounds, budget %d", ph, n, adaptiveConvergeWithin)
		}
	}
	if res.MemRatio >= 1 {
		t.Errorf("mem ratio %.3f, want < 1 (adaptive must beat static worst-case)", res.MemRatio)
	}
	if res.Flaps != 0 {
		t.Errorf("flaps = %d, want 0", res.Flaps)
	}
	if res.QIDChanges != 0 {
		t.Errorf("qid changes = %d, want 0 (resizes must keep the deployment)", res.QIDChanges)
	}
	if res.ProvenanceMixups != 0 {
		t.Errorf("provenance mixups = %d, want 0", res.ProvenanceMixups)
	}
	// The loop must actually adapt: at least one widen (frugal start is
	// deliberately under-provisioned) and one narrow (the surge width
	// is over-provisioned once calm returns).
	if res.Widens == 0 || res.Narrows == 0 {
		t.Errorf("widens=%d narrows=%d, want both nonzero", res.Widens, res.Narrows)
	}
	t.Logf("converged %v, mem ratio %.3f, resizes %d, final width %d",
		res.ConvergedIn, res.MemRatio, res.Resizes, res.FinalWidth)
}
