//go:build race

package wire

// raceEnabled: the race detector makes sync.Pool drop a share of what
// is put back, so a test that counts on a pooled flate writer being
// reused cannot hold its allocation bound under -race.
const raceEnabled = true
