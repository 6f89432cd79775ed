//go:build !race

package modules_test

const raceEnabled = false
