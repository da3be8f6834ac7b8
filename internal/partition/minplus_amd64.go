package partition

// minPlus is minPlusSSE2 behind a length check: b is resliced to a's
// length, panicking if it is shorter, before either slice reaches the
// assembly, which reads len(a) elements of each.
func minPlus(a, b []float64) float64 { return minPlusSSE2(a, b[:len(a)]) }

// minPlusSSE2 returns min over i of a[i] + b[i], starting from the inf
// sentinel; b must be at least as long as a. SSE2 is part of the amd64
// baseline, so it needs no CPU probe.
//
//go:noescape
func minPlusSSE2(a, b []float64) float64
