//go:build !race

package mrc_test

const raceEnabled = false
