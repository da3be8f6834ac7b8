//go:build race

package profileio

// raceEnabled reports whether the test binary was built with -race.
const raceEnabled = true
