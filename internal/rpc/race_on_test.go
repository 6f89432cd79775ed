//go:build race

package rpc

// raceEnabled: the race detector makes sync.Pool drop a share of what
// is put back, so a test that counts allocations cannot hold its bound
// under -race.
const raceEnabled = true
