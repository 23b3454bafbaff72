//go:build race

package coredump_test

// raceEnabled skips the allocation bound of Compare under the race
// detector, whose sync.Pool drops pooled objects at random.
const raceEnabled = true
