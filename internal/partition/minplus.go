package partition

// minPlus returns min over i of a[i] + b[i], or the inf sentinel when a is
// empty; b must be at least as long as a. It is the one min-plus gather
// behind every unchecked Sum scan: the exact rung's cells and tiles, the
// refinement rung's fine pass, and its forward and backward lower-bound
// tables. On amd64 it is SSE2 assembly (minplus_amd64.s); elsewhere it is
// minPlusGeneric.
//
// Precondition (DESIGN.md §13.4): no a[i], b[i] or a[i]+b[i] is NaN, and no
// a[i]+b[i] is −0. Under it every accumulation order and every min
// instruction return the bits of the strict-< scan's result, because
// float64 min is exact and the only values it cannot order — NaN and a
// ±0 tie — never occur. The unchecked scans meet it: non-finite costs
// force the checked kernels or a refinement fallback, and from the +0
// base row no candidate sum is ever −0.

// minPlusGeneric is the portable kernel and the tests' oracle: two
// independent accumulators break the serial min dependency chain, and
// strict < keeps the inf sentinel when every sum is ≥ it.
func minPlusGeneric(a, b []float64) float64 {
	b = b[:len(a)]
	best, best2 := inf, inf
	i := 0
	for ; i+1 < len(a); i += 2 {
		if cand := a[i] + b[i]; cand < best {
			best = cand
		}
		if cand := a[i+1] + b[i+1]; cand < best2 {
			best2 = cand
		}
	}
	if i < len(a) {
		if cand := a[i] + b[i]; cand < best {
			best = cand
		}
	}
	if best2 < best {
		best = best2
	}
	return best
}
