//go:build race

package scheduler

// raceEnabled: the race detector changes what allocates, so the
// allocation budgets skip under it.
const raceEnabled = true
