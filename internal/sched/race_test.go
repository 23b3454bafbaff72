//go:build race

package sched_test

// raceEnabled shrinks the loop oracle's seed sweep under the race
// detector.
const raceEnabled = true
