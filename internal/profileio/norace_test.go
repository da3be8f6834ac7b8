//go:build !race

package profileio

const raceEnabled = false
