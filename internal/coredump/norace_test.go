//go:build !race

package coredump_test

const raceEnabled = false
