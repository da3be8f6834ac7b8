//go:build race

package partition

// raceEnabled reports whether the test binary was built with -race.
const raceEnabled = true
