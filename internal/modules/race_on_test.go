//go:build race

package modules_test

// raceEnabled: TestSliceEqualsWhole drives its switches from one
// goroutine, so the race detector has nothing to check in it, while its
// register atomics make the sweep about forty times slower. The CI step
// "CQE slice ≡ whole query" runs it without -race.
const raceEnabled = true
