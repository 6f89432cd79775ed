//go:build race

package orchestrator

// raceEnabled: the race detector changes what allocates, so the
// allocation budgets skip under it.
const raceEnabled = true
