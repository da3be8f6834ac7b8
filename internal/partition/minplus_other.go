//go:build !amd64

package partition

// minPlus is the portable kernel on every GOARCH without an assembly one.
func minPlus(a, b []float64) float64 { return minPlusGeneric(a, b) }
