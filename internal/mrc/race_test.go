//go:build race

package mrc_test

// raceEnabled reports whether the test binary was built with -race.
const raceEnabled = true
