package partition

import (
	"context"
	"math"
)

// Coarse-to-fine refinement (DESIGN.md §13): solve the instance on a
// coarse granularity grid, derive an upper bound B from the coarse
// allocation evaluated on the fine costs, and use exact two-sided coarse
// DP lower bounds to prune every fine DP cell that provably cannot lie on
// an optimal (or tying) path. Levels descend geometrically (g, g/8, …, 1),
// each level re-banding the next, so the final exact pass touches only a
// narrow band around the optimum instead of all O(P·C²) cells.
//
// Exactness, not approximation: the coarse tables bound the *real-number*
// DP from below (block-minimum costs, floor-mapped totals), the upper
// bound B is an achievable float64 path value accumulated in the DP's own
// left-to-right order (hence B ≥ the float64 optimum), and a cell is
// pruned only when lowerBound > B·(1+refineMargin), with the margin chosen
// orders of magnitude above the worst-case float64 drift of the bound
// sums. Any cell on a float64-optimal path — or tying one — therefore
// survives pruning; the surviving band is solved by the exact kernels over
// the exact costs; and reconstructAlloc's full-window rescan reproduces
// the reference tie-breaking bit for bit (see the soundness walk-through
// in DESIGN.md §13.2). Every guard failure falls back to the exact
// kernel, so refinement can be slow to decline but never wrong.
//
// Eligibility: Sum objective, no upper bound below C, n ≥ 2 programs, and
// every cost finite, non-negative, and free of negative zeros. Lower
// bounds are no obstacle: solve hands this rung the shifted problem on the
// feasible box, which has none (DESIGN.md §13.2). Relative
// margins are meaningless under cancellation, which is why negative custom
// costs are declined rather than risked.

const (
	// refineMinUnits is the C at or above which the solver attempts
	// refinement. Below it no useful level schedule exists; at it, on the
	// paper's programs, refinement already solves ~3× faster than the
	// exact kernel (DESIGN.md §13.1).
	refineMinUnits = 512
	// refineMargin is the relative slack added to the upper bound before
	// pruning. It exceeds the worst-case relative float64 drift of the
	// bound arithmetic (~n·2⁻⁵²) by several orders of magnitude; widening
	// it only retains more cells, never changes results.
	refineMargin = 1e-9
	// refineCoarsestCells bounds the coarsest level's grid size. The
	// coarsest level is the only one solved unbanded (O(n·TB²)), so its
	// grid is kept tiny; every finer level is banded by its predecessor.
	refineCoarsestCells = 48
	refineLevelRatio    = 8
)

// refineWorkBudget is the per-stage cell-scan budget: a banded level or
// the fine pass may cost at most this many candidate scans before the
// solve bails to the exact kernel. The exact solve this rung replaces
// scans ~n·(C+1)²/2 candidates, so capping each of the few stages at an
// eighth of that bounds a worst-case (adversarially flat, tie-saturated)
// refinement at roughly the exact solve's cost while letting moderately
// wide bands — still far cheaper than exact — run to completion.
func refineWorkBudget(n, C int) int64 {
	c1 := int64(C) + 1
	return int64(n) * c1 * c1 / 8
}

// refineLevel holds one granularity level's two-sided lower-bound tables.
// dlow[p][S] bounds from below (over the reals) the cost of any fine
// prefix allocation of programs 0..p whose block-floor total Σ⌊u_q/g⌋
// equals S; elow[p][S] is the mirror-image bound for suffix programs
// p..n−1.
type refineLevel struct {
	g, TB int
	dlow  [][]float64
	elow  [][]float64
	// dspan/espan record each row's finite-entry range [min, max]
	// (max < min when empty). Rows live in pooled, uncleared arenas and
	// are only written on the banded range, so every consumer restricts
	// its reads to these spans.
	dspan [][2]int
	espan [][2]int
}

// certifyCostRow reports whether every cost in row is +0, positive or
// +Inf, and returns the row's maximum (0 for an empty row). It reads
// the costs as bits: non-negative floats order like their bit patterns,
// and every rejected value — negative, −0 or NaN — has a pattern above
// +Inf's, so one branch-free running max decides the whole row.
func certifyCostRow(row []float64) (layerMax float64, ok bool) {
	var maxBits uint64
	for _, c := range row {
		maxBits = max(maxBits, math.Float64bits(c))
	}
	return math.Float64frombits(maxBits), maxBits <= posInfBits
}

// posInfBits is +Inf's bit pattern, the largest one certifyCostRow
// accepts.
const posInfBits = 0x7ff0000000000000

// refineSolve attempts the refinement rung. On success it fills s.rows and
// s.metas exactly as the per-layer loop would (values at unpruned cells,
// inf elsewhere) and returns true; on ineligibility or any guard failure
// it returns false with the scratch base row intact so the caller can fall
// through to the exact kernel.
func refineSolve(ctx context.Context, pr *Problem, s *scratch, path *solvePath) (bool, error) {
	n, C := len(pr.Curves), pr.Units
	if pr.Combine != Sum || n < 2 || C < refineMinUnits {
		return false, nil
	}
	// Lower bounds never reach this rung: solve shifts them out first.
	for p := 0; p < n; p++ {
		if _, hi := pr.bounds(p); hi < C {
			return false, nil
		}
	}

	// Materialize the cost table (or alias a caller-provided one) and
	// certify it in the same pass: finite, non-negative, no negative
	// zeros, cumulative magnitude inside the unchecked-kernel safe range.
	costs := make([][]float64, n)
	if pr.CostTable == nil {
		s.costBuf = growFloats(s.costBuf, n*(C+1))
	}
	costBound := 0.0
	for p := 0; p < n; p++ {
		var row []float64 // costWindow's buffer; a CostTable needs none
		if pr.CostTable == nil {
			row = s.costBuf[p*(C+1) : (p+1)*(C+1)]
		}
		costs[p] = pr.costWindow(p, 0, C, row)
		layerMax, ok := certifyCostRow(costs[p])
		if !ok {
			path.refineFallback = true
			return false, nil
		}
		costBound += layerMax
	}
	if !(costBound < costSafeLimit) {
		path.refineFallback = true
		return false, nil
	}

	// Level schedule: the coarsest power of refineLevelRatio whose grid
	// fits refineCoarsestCells, then /ratio per level down to (but not
	// including) the fine grid.
	top := 1
	for C/top+1 > refineCoarsestCells {
		top *= refineLevelRatio
	}
	if top < 2 {
		return false, nil
	}
	var gs []int
	for g := top; g >= 2; g /= refineLevelRatio {
		gs = append(gs, g)
	}

	// Block-minimum pyramids, built fine-to-coarse so each level's table
	// costs O(n·TB_child) instead of rescanning all n·(C+1) fine cells.
	// All levels share one pooled arena; every entry is written below, so
	// reuse needs no clearing.
	cmins := make([][]float64, len(gs))
	cminTotal := 0
	for _, g := range gs {
		cminTotal += n * (C/g + 1)
	}
	s.cminBuf = growFloats(s.cminBuf, cminTotal)
	cminOff := 0
	for i := len(gs) - 1; i >= 0; i-- {
		g := gs[i]
		TB := C/g + 1
		cm := s.cminBuf[cminOff : cminOff+n*TB]
		cminOff += n * TB
		if i == len(gs)-1 {
			for p := 0; p < n; p++ {
				row := costs[p]
				out := cm[p*TB : (p+1)*TB]
				for T := 0; T < TB; T++ {
					a := T * g
					b := a + g - 1
					if b > C {
						b = C
					}
					// Paired accumulators as in minPlusGeneric: min is exact,
					// so the split changes no bits, only the dependency chain.
					m, m2 := row[a], inf
					u := a + 1
					for ; u+1 <= b; u += 2 {
						if row[u] < m {
							m = row[u]
						}
						if row[u+1] < m2 {
							m2 = row[u+1]
						}
					}
					if u <= b && row[u] < m {
						m = row[u]
					}
					if m2 < m {
						m = m2
					}
					out[T] = m
				}
			}
		} else {
			r := g / gs[i+1]
			TBc := C/gs[i+1] + 1
			for p := 0; p < n; p++ {
				child := cmins[i+1][p*TBc : (p+1)*TBc]
				out := cm[p*TB : (p+1)*TB]
				for T := 0; T < TB; T++ {
					a := T * r
					b := a + r - 1
					if b > TBc-1 {
						b = TBc - 1
					}
					m := child[a]
					for j := a + 1; j <= b; j++ {
						if child[j] < m {
							m = child[j]
						}
					}
					out[T] = m
				}
			}
		}
		cmins[i] = cm
	}

	B := inf
	budget := refineWorkBudget(n, C)
	var lv *refineLevel
	var allowF, allowB []bool // nil on the coarsest level = everything
	var rngF, rngB [][2]int   // per-row surviving S ranges of the masks
	for i, g := range gs {
		if err := refineCtxCheck(ctx); err != nil {
			return false, err
		}
		// The banded upper solve pays a second candidate stream per cell,
		// so it runs only on the coarse levels (g ≥ 64), where bands are
		// small and a tighter B still has finer levels left to narrow; on
		// the finer levels polish has already pulled B close to optimal
		// and the extra stream would cost more than the band it saves.
		var cand []int
		var candObj float64
		lv, cand, candObj = refineComputeLevel(n, C, g, costs, cmins[i], allowF, allowB, rngF, rngB, i+1 < len(gs) && g >= 64, s, i&1)
		if cand != nil && candObj < B {
			// Polishing the representative allocation at fine granularity
			// tightens B well below the coarse-grid slack, which narrows
			// every band this level and below will cut.
			B = refinePolish(costs, cand, C, candObj)
		}
		if B == inf {
			// No feasible coarse allocation survived banding — hand the
			// instance to the exact path rather than reasoning further.
			path.refineFallback = true
			return false, nil
		}
		if i+1 == len(gs) {
			break
		}
		var work int64
		allowF, allowB, rngF, rngB, work = refineBand(lv, n, C, gs[i+1], B, s)
		if work > budget {
			// Pruning is not biting (adversarially flat instance);
			// finishing the descent would cost more than the exact solve.
			path.refineFallback = true
			return false, nil
		}
	}

	// Band the fine grid and solve the surviving cells exactly.
	spans, work := refineBandFine(lv, n, C, B, s)
	if work > budget {
		path.refineFallback = true
		return false, nil
	}
	if err := refineFineSolve(ctx, n, C, costs, spans, s, path); err != nil {
		return false, err
	}
	if s.rows[n][C] == inf {
		// Defensive: the soundness argument makes this unreachable, but a
		// fallback that recomputes exactly is strictly safer than trusting
		// an invariant at runtime.
		path.refineFallback = true
		return false, nil
	}
	path.refine = true
	return true, nil
}

func refineCtxCheck(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	select {
	case <-ctx.Done():
		return ctx.Err()
	default:
		return nil
	}
}

// refineComputeLevel builds one level's two-sided banded lower-bound DPs
// over the precomputed block minima, plus (on coarse levels) a banded
// upper solve over representative costs (costs[p][T·g], an achievable
// allocation). It returns the representative allocation and its objective
// — evaluated on the fine costs, in DP accumulation order — as an
// upper-bound candidate, or (nil, inf) when no upper solve ran or it found
// no feasible chain. Rows are written only on the banded S ranges
// (rngF/rngB, full grid on the coarsest level); the finite spans the next
// consumer may read are recorded in lv.dspan/lv.espan.
func refineComputeLevel(n, C, g int, costs [][]float64, cmin []float64, allowF, allowB []bool, rngF, rngB [][2]int, upper bool, s *scratch, parity int) (*refineLevel, []int, float64) {
	TB := C/g + 1

	lv := &refineLevel{g: g, TB: TB}
	lv.dlow = make([][]float64, n)
	lv.elow = make([][]float64, n)
	lv.dspan = make([][2]int, n)
	lv.espan = make([][2]int, n)
	// Ping-pong between the two pooled arenas: the previous level's rows
	// are still read (by the banding that produced rngF/rngB) after this
	// level starts writing.
	var flat []float64
	if parity == 0 {
		s.lvlBuf0 = growFloats(s.lvlBuf0, 2*n*TB)
		flat = s.lvlBuf0
	} else {
		s.lvlBuf1 = growFloats(s.lvlBuf1, 2*n*TB)
		flat = s.lvlBuf1
	}
	for p := 0; p < n; p++ {
		lv.dlow[p] = flat[p*TB : (p+1)*TB]
		lv.elow[p] = flat[(n+p)*TB : (n+p+1)*TB]
	}
	var dup, crep []float64
	var chUp []int32
	if upper {
		s.upBuf = growFloats(s.upBuf, 2*n*TB)
		dup = s.upBuf[:n*TB]
		// Representative costs gathered into contiguous rows once: the
		// upper DP's inner loop re-reads them per cell, and the strided
		// costs[p][T·g] access pattern is what it would otherwise pay for
		// every candidate.
		crep = s.upBuf[n*TB:]
		for p := 0; p < n; p++ {
			row := costs[p]
			cr := crep[p*TB : (p+1)*TB]
			for T := 0; T < TB; T++ {
				cr[T] = row[T*g]
			}
		}
		chUp = growInt32s(&s.chBuf, n*TB)
	}
	// Block minima reversed per program, so both streams of a bound scan
	// ascend and it is one minPlus call: the candidates for S pair
	// prev[j], j ascending, with cmin[S−j] = cminRev[TB−1−S+j].
	cminRev := growFloats(s.cminRevBuf, n*TB)
	s.cminRevBuf = cminRev
	for p := 0; p < n; p++ {
		rv := cminRev[p*TB : (p+1)*TB]
		for T, v := range cmin[p*TB : (p+1)*TB] {
			rv[TB-1-T] = v
		}
	}
	// boundScan is min over T in [t0, t1] of prev[S−T] + cmin_p[T] for
	// program p's reversed row rv, or inf when the window is empty. inf
	// predecessors need no guard: inf + a non-negative cost is ≥ inf, so it
	// never undercuts the sentinel the scan starts from.
	boundScan := func(prev, rv []float64, S, t0, t1 int) float64 {
		if t0 > t1 {
			return inf
		}
		return minPlus(prev[S-t1:S-t0+1], rv[TB-1-t1:TB-t0])
	}
	rowRange := func(rng [][2]int, p int) (int, int) {
		if rng == nil {
			return 0, TB - 1
		}
		return rng[p][0], rng[p][1]
	}

	// pMin/pMax track the finite span of the previous row: outside it every
	// predecessor is inf, so each cell's T scan covers only the surviving
	// band instead of all of [0, S] — this is what keeps the banded levels
	// O(band²) rather than O(band·TB).
	pMin, pMax := TB, -1
	lo, hi := rowRange(rngF, 0)
	for S := lo; S <= hi; S++ {
		lv.dlow[0][S] = inf
		if allowF == nil || allowF[S] {
			lv.dlow[0][S] = cmin[S]
			if upper {
				dup[S] = crep[S]
				chUp[S] = int32(S)
			}
			if S < pMin {
				pMin = S
			}
			pMax = S
		} else if upper {
			dup[S] = inf
		}
	}
	lv.dspan[0] = [2]int{pMin, pMax}
	for p := 1; p < n; p++ {
		dl, dlPrev := lv.dlow[p], lv.dlow[p-1]
		rv := cminRev[p*TB : (p+1)*TB]
		var dupRow, dupPrev, crow []float64
		if upper {
			dupRow, dupPrev = dup[p*TB:(p+1)*TB], dup[(p-1)*TB:p*TB]
			crow = crep[p*TB : (p+1)*TB]
		}
		nMin, nMax := TB, -1
		lo, hi := rowRange(rngF, p)
		for S := lo; S <= hi; S++ {
			dl[S] = inf
			if upper {
				dupRow[S] = inf
			}
			if (allowF != nil && !allowF[p*TB+S]) || pMax < 0 {
				continue
			}
			t0 := S - pMax
			if t0 < 0 {
				t0 = 0
			}
			t1 := S - pMin
			if t1 > S {
				t1 = S
			}
			bestL := boundScan(dlPrev, rv, S, t0, t1)
			if upper {
				// The upper solve needs its argmin, so it stays a scalar
				// leftmost strict-improve scan.
				bestU := inf
				bestT := int32(0)
				for T := t0; T <= t1; T++ {
					if cand := dupPrev[S-T] + crow[T]; cand < bestU {
						bestU = cand
						bestT = int32(T)
					}
				}
				dupRow[S] = bestU
				chUp[p*TB+S] = bestT
			}
			dl[S] = bestL
			if bestL != inf {
				if S < nMin {
					nMin = S
				}
				nMax = S
			}
		}
		lv.dspan[p] = [2]int{nMin, nMax}
		pMin, pMax = nMin, nMax
	}

	pMin, pMax = TB, -1
	cm := cmin[(n-1)*TB : n*TB]
	lo, hi = rowRange(rngB, n-1)
	for S := lo; S <= hi; S++ {
		lv.elow[n-1][S] = inf
		if allowB == nil || allowB[(n-1)*TB+S] {
			lv.elow[n-1][S] = cm[S]
			if S < pMin {
				pMin = S
			}
			pMax = S
		}
	}
	lv.espan[n-1] = [2]int{pMin, pMax}
	for p := n - 2; p >= 0; p-- {
		el, elNext := lv.elow[p], lv.elow[p+1]
		rv := cminRev[p*TB : (p+1)*TB]
		nMin, nMax := TB, -1
		lo, hi := rowRange(rngB, p)
		for S := lo; S <= hi; S++ {
			el[S] = inf
			if (allowB != nil && !allowB[p*TB+S]) || pMax < 0 {
				continue
			}
			t0 := S - pMax
			if t0 < 0 {
				t0 = 0
			}
			t1 := S - pMin
			if t1 > S {
				t1 = S
			}
			best := boundScan(elNext, rv, S, t0, t1)
			el[S] = best
			if best != inf {
				if S < nMin {
					nMin = S
				}
				nMax = S
			}
		}
		lv.espan[p] = [2]int{nMin, nMax}
		pMin, pMax = nMin, nMax
	}

	// Upper-bound candidate: reconstruct the representative allocation,
	// give the sub-block remainder to program 0, and accumulate the fine
	// costs in layer order — the same float64 reduction order the DP path
	// values use, so the result can never undercut the float64 optimum.
	if !upper {
		return lv, nil, inf
	}
	Su := C / g
	// The span check also keeps the read off unwritten arena cells when
	// Su falls outside the final row's banded range.
	if Su < lv.dspan[n-1][0] || Su > lv.dspan[n-1][1] || dup[(n-1)*TB+Su] == inf {
		return lv, nil, inf
	}
	alloc := make([]int, n)
	S := Su
	for p := n - 1; p >= 1; p-- {
		T := int(chUp[p*TB+S])
		alloc[p] = T * g
		S -= T
	}
	alloc[0] = S*g + (C - Su*g)
	obj := 0.0
	for p := 0; p < n; p++ {
		obj += costs[p][alloc[p]]
	}
	return lv, alloc, obj
}

// refinePolish hill-climbs an upper-bound allocation at fine granularity:
// pairwise moves in power-of-two step sizes, screened by incremental cost
// deltas and restarted at step 1 after every acceptance. The final
// objective is re-accumulated from scratch in layer order, so the returned
// bound remains an achievable float64 path value regardless of what the
// (cancellation-prone) screening deltas did; B only ever tightens.
func refinePolish(costs [][]float64, alloc []int, C int, B float64) float64 {
	n := len(alloc)
	a := append([]int(nil), alloc...)
	moves := 0
	for moved := true; moved && moves < 4096; {
		moved = false
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i == j {
					continue
				}
				ci, cj := costs[i], costs[j]
				for d := 1; moves < 4096 && d <= a[i] && a[j]+d <= C; {
					delta := (ci[a[i]-d] - ci[a[i]]) + (cj[a[j]+d] - cj[a[j]])
					if delta < 0 {
						a[i] -= d
						a[j] += d
						moved = true
						moves++
						d = 1
						continue
					}
					d <<= 1
				}
			}
		}
	}
	obj := 0.0
	for p := 0; p < n; p++ {
		obj += costs[p][a[p]]
	}
	if obj < B {
		return obj
	}
	return B
}

// growInt32s and growBools mirror growFloats for the refine scratch.
func growInt32s(b *[]int32, n int) []int32 {
	if cap(*b) < n {
		*b = make([]int32, n)
	}
	*b = (*b)[:n]
	return *b
}

func growBools(b *[]bool, n int) []bool {
	if cap(*b) < n {
		*b = make([]bool, n)
	}
	*b = (*b)[:n]
	return *b
}

// bandSweep fills out[S2] with the minimum of row over the block window a
// per-cell bound scan would cover when bounding the target interval
// [tLo(S2), tHi(S2)] — [S2·g2, min(C, S2·g2+wTarget)] for rev=false, or
// its reflection [max(0, C−S2·g2−wTarget), C−S2·g2] for rev=true — where
// the window over the granularity-g row is sHi = ⌊tHi/g⌋,
// sLo = max(0, ⌈(tLo−wRow)/g⌉). Only the S2 range whose window reaches the
// row's finite span [fMin, fMax] is computed and written; the range is
// returned (hi < lo when empty) and entries outside it are +inf by
// convention. S2 is iterated in the direction that makes both interval
// ends nondecreasing, so both window ends advance incrementally — a
// monotone-deque sweep, O(range) with no per-cell divisions.
func bandSweep(row []float64, fMin, fMax, TB2, g2, C, wTarget, wRow, g int, rev bool, dq []int32, out []float64) (int, int) {
	if fMax < fMin {
		return 0, -1
	}
	var s2lo, s2hi int
	if !rev {
		// tLo ≤ fMax·g + wRow and (uncapped) tHi ≥ fMin·g.
		s2hi = (fMax*g + wRow) / g2
		if a := fMin*g - wTarget; a > 0 {
			s2lo = (a + g2 - 1) / g2
		}
	} else {
		s2hi = (C - fMin*g) / g2
		if a := C - fMax*g - wRow - wTarget; a > 0 {
			s2lo = (a + g2 - 1) / g2
		}
	}
	if s2hi > TB2-1 {
		s2hi = TB2 - 1
	}
	if s2lo > s2hi {
		return 0, -1
	}
	head, tail := 0, 0
	sHi, sHiT := fMin-1, fMin*g // sHiT = (sHi+1)·g; blocks outside [fMin, fMax] are never pushed
	step := func(S2, tLo, tHi int) {
		for sHi < fMax && sHiT <= tHi {
			sHi++
			sHiT += g
			if v := row[sHi]; v != inf {
				for tail > head && row[dq[tail-1]] >= v {
					tail--
				}
				dq[tail] = int32(sHi)
				tail++
			}
		}
		for tail > head && int(dq[head])*g+wRow < tLo {
			head++
		}
		if tail > head {
			out[S2] = row[dq[head]]
		} else {
			out[S2] = inf
		}
	}
	if !rev {
		tLo := s2lo * g2
		tHi := tLo + wTarget
		if tHi > C {
			tHi = C
		}
		for S2 := s2lo; S2 <= s2hi; S2++ {
			if S2 > s2lo {
				tLo += g2
				if tHi += g2; tHi > C {
					tHi = C
				}
			}
			step(S2, tLo, tHi)
		}
	} else {
		tHi := C - s2hi*g2
		tLo := tHi - wTarget
		for S2 := s2hi; S2 >= s2lo; S2-- {
			if S2 < s2hi {
				tHi += g2
				tLo = tHi - wTarget
			}
			step(S2, tLo, tHi)
		}
	}
	return s2lo, s2hi
}

// refineBand computes the next level's forward and backward cell masks
// from the current level's bounds: cell (p, S2) survives iff some fine
// total it covers admits a completion whose two-sided lower bound stays
// within B·(1+refineMargin). Each mask row is two bandSweep passes — the
// own-side bound's windows ascend with S2, the opposite side's descend, so
// the latter is swept in reverse into a buffer — combined only over the
// intersection of their valid ranges; the surviving [min, max] per row is
// returned in rngF/rngB so the next level iterates nothing else. The work
// estimate is the banded level's projected scan cost —
// Σ_p widthF(p)·widthF(p−1) plus the backward mirror — so the caller can
// bail before paying for a band that is not narrow.
func refineBand(lv *refineLevel, n, C, g2 int, B float64, s *scratch) (allowF, allowB []bool, rngF, rngB [][2]int, work int64) {
	TB2 := C/g2 + 1
	limit := B * (1 + refineMargin)
	mask := growBools(&s.maskBuf, 2*n*TB2)
	allowF, allowB = mask[:n*TB2], mask[n*TB2:]
	rngF = make([][2]int, n)
	rngB = make([][2]int, n)
	g := lv.g
	buf := growFloats(s.sweepBuf, 2*TB2)
	s.sweepBuf = buf
	opp, own := buf[:TB2], buf[TB2:]
	dq := growInt32s(&s.dqBuf, lv.TB)
	// combine intersects the two sweeps' ranges, writes the mask row
	// unconditionally there (the pooled mask arena is never cleared), and
	// returns the surviving range. zeroHas flags the empty-prefix/suffix
	// convention: the opposite side is exactly zero from zeroLo up (target
	// interval reaches C), +inf below, with no opp buffer behind it.
	combine := func(row []bool, oLo, oHi, wLo, wHi int, zeroHas bool) (int, int) {
		lo, hi := wLo, wHi
		if oLo > lo {
			lo = oLo
		}
		if oHi < hi {
			hi = oHi
		}
		minS, maxS := TB2, -1
		for S2 := lo; S2 <= hi; S2++ {
			v := own[S2]
			if !zeroHas {
				v += opp[S2]
			}
			ok := v <= limit
			row[S2] = ok
			if ok {
				if S2 < minS {
					minS = S2
				}
				maxS = S2
			}
		}
		return minS, maxS
	}
	prevWF, prevWB := int64(1), int64(1)
	for p := 0; p < n; p++ {
		wT := (p + 1) * (g2 - 1)
		var oLo, oHi int
		zeroOpp := p == n-1
		if zeroOpp {
			// Empty suffix: zero cost exactly when tmax ≥ C.
			oLo, oHi = 0, TB2-1
			if thr := C - wT; thr > 0 {
				oLo = (thr + g2 - 1) / g2
			}
		} else {
			sp := lv.espan[p+1]
			oLo, oHi = bandSweep(lv.elow[p+1], sp[0], sp[1], TB2, g2, C, wT, (n-p-1)*(g-1), g, true, dq, opp)
		}
		sp := lv.dspan[p]
		wLo, wHi := bandSweep(lv.dlow[p], sp[0], sp[1], TB2, g2, C, wT, (p+1)*(g-1), g, false, dq, own)
		minF, maxF := combine(allowF[p*TB2:(p+1)*TB2], oLo, oHi, wLo, wHi, zeroOpp)
		rngF[p] = [2]int{minF, maxF}

		wT = (n - p) * (g2 - 1)
		zeroOpp = p == 0
		if zeroOpp {
			oLo, oHi = 0, TB2-1
			if thr := C - wT; thr > 0 {
				oLo = (thr + g2 - 1) / g2
			}
		} else {
			sp := lv.dspan[p-1]
			oLo, oHi = bandSweep(lv.dlow[p-1], sp[0], sp[1], TB2, g2, C, wT, p*(g-1), g, true, dq, opp)
		}
		sp = lv.espan[p]
		wLo, wHi = bandSweep(lv.elow[p], sp[0], sp[1], TB2, g2, C, wT, (n-p)*(g-1), g, false, dq, own)
		minB, maxB := combine(allowB[p*TB2:(p+1)*TB2], oLo, oHi, wLo, wHi, zeroOpp)
		rngB[p] = [2]int{minB, maxB}

		wF, wB := int64(maxF-minF+1), int64(maxB-minB+1)
		if wF < 0 {
			wF = 0
		}
		if wB < 0 {
			wB = 0
		}
		work += wF*prevWF + wB*prevWB
		prevWF, prevWB = wF, wB
	}
	return allowF, allowB, rngF, rngB, work
}

type rspan struct{ a, b int }

// refineBandFine computes the fine-grid band as per-layer spans of
// surviving t cells, plus the projected fine-pass scan cost
// Σ_p cells(p)·cells(p−1). The per-t coarse windows advance monotonically,
// so each layer costs two division-free sliding-window-minimum sweeps —
// one for the suffix bounds (indexed by remaining units m), one fused with
// the prefix bounds and the span emission.
func refineBandFine(lv *refineLevel, n, C int, B float64, s *scratch) ([][]rspan, int64) {
	limit := B * (1 + refineMargin)
	spans := make([][]rspan, n)
	// The suffix bounds reuse the banding sweeps' buffer, which no later
	// stage reads; slidingLB writes every entry emitFineSpans reads.
	s.sweepBuf = growFloats(s.sweepBuf, C+1)
	suf := s.sweepBuf
	var work int64
	prevCells := int64(1)
	for p := 0; p < n; p++ {
		var cells int64
		if p == n-1 {
			// Empty suffix: only t == C can complete with zero units. The
			// prefix bound for t == C is the min of dlow[n−1] over the
			// window [⌈(C−n·(g−1))/g⌉, ⌊C/g⌋], clipped to the row's span.
			sp := lv.dspan[n-1]
			sHi := C / lv.g
			if sHi > sp[1] {
				sHi = sp[1]
			}
			sLo := sp[0]
			if a := C - n*(lv.g-1); a > 0 {
				if first := (a + lv.g - 1) / lv.g; first > sLo {
					sLo = first
				}
			}
			best := inf
			row := lv.dlow[n-1]
			for S := sLo; S <= sHi; S++ {
				if row[S] < best {
					best = row[S]
				}
			}
			if best <= limit {
				spans[p] = []rspan{{C, C}}
				cells = 1
			}
		} else {
			esp := lv.espan[p+1]
			sufLo, sufHi := slidingLB(lv.elow[p+1], esp[0], esp[1], (n-p-1)*(lv.g-1), lv.g, C, suf)
			if sufHi >= sufLo {
				dsp := lv.dspan[p]
				spans[p], cells = emitFineSpans(lv.dlow[p], dsp[0], dsp[1], suf, sufLo, sufHi, (p+1)*(lv.g-1), lv.g, C, limit)
			}
		}
		work += cells * prevCells
		prevCells = cells
	}
	return spans, work
}

// slidingLB fills out[x] = min(row[sLo(x)..sHi(x)]) over the coarse bound
// windows sHi(x) = ⌊x/g⌋, sLo(x) = max(0, ⌈(x−slack)/g⌉), for the x range
// whose window can reach the row's finite span [sMin, sMax], and returns
// that range [lo, hi] (hi < lo when the row is empty). Entries outside the
// range are not written; callers must treat them as +inf. Monotone-deque
// sweep, O(range) with no per-x divisions: both window ends advance by at
// most one block per step.
func slidingLB(row []float64, sMin, sMax, slack, g, C int, out []float64) (lo, hi int) {
	if sMax < sMin {
		return 0, -1
	}
	lo = sMin * g
	if lo > C {
		return 0, -1
	}
	hi = sMax*g + g - 1 + slack
	if hi > C {
		hi = C
	}
	dq := make([]int32, sMax-sMin+1)
	head, tail := 0, 0
	sLo := 0
	if a := lo - slack; a > 0 {
		sLo = (a + g - 1) / g
	}
	sLoX := slack + sLo*g + 1 // first x at which sLo increments
	x := lo
	for S := sMin; S <= sMax && x <= hi; S++ {
		if v := row[S]; v != inf {
			for tail > head && row[dq[tail-1]] >= v {
				tail--
			}
			dq[tail] = int32(S)
			tail++
		}
		xEnd := S*g + g - 1
		if xEnd > hi {
			xEnd = hi
		}
		for ; x <= xEnd; x++ {
			for x >= sLoX {
				sLo++
				sLoX += g
			}
			for tail > head && int(dq[head]) < sLo {
				head++
			}
			if tail > head {
				out[x] = row[dq[head]]
			} else {
				out[x] = inf
			}
		}
	}
	// Tail: x past the last block's own cells, still inside the slack reach.
	for ; x <= hi; x++ {
		for x >= sLoX {
			sLo++
			sLoX += g
		}
		for tail > head && int(dq[head]) < sLo {
			head++
		}
		if tail > head {
			out[x] = row[dq[head]]
		} else {
			out[x] = inf
		}
	}
	return lo, hi
}

// emitFineSpans runs the prefix sliding window over dlow and fuses the
// band test pref(t) + suf[C−t] ≤ limit, emitting maximal runs of
// surviving t. suf is only valid on [sufLo, sufHi]; outside it the suffix
// bound is +inf and the cell cannot survive.
func emitFineSpans(dlow []float64, sMin, sMax int, suf []float64, sufLo, sufHi, slack, g, C int, limit float64) ([]rspan, int64) {
	if sMax < sMin {
		return nil, 0
	}
	tLo := sMin * g
	if tLo > C {
		return nil, 0
	}
	tHi := sMax*g + g - 1 + slack
	if tHi > C {
		tHi = C
	}
	// Clip to t whose mirrored suffix index C−t lies in suf's valid range.
	if lo2 := C - sufHi; lo2 > tLo {
		tLo = lo2
	}
	if hi2 := C - sufLo; hi2 < tHi {
		tHi = hi2
	}
	if tLo > tHi {
		return nil, 0
	}
	var out []rspan
	var cells int64
	dq := make([]int32, sMax-sMin+1)
	head, tail := 0, 0
	sLo := 0
	if a := tLo - slack; a > 0 {
		sLo = (a + g - 1) / g
	}
	sLoX := slack + sLo*g + 1
	runStart := -1
	t := tLo
	emit := func(tEnd int) {
		for ; t <= tEnd; t++ {
			for t >= sLoX {
				sLo++
				sLoX += g
			}
			for tail > head && int(dq[head]) < sLo {
				head++
			}
			in := false
			if tail > head {
				in = dlow[dq[head]]+suf[C-t] <= limit
			}
			if in {
				if runStart < 0 {
					runStart = t
				}
				cells++
			} else if runStart >= 0 {
				out = append(out, rspan{runStart, t - 1})
				runStart = -1
			}
		}
	}
	for S := sMin; S <= sMax && t <= tHi; S++ {
		if v := dlow[S]; v != inf {
			for tail > head && dlow[dq[tail-1]] >= v {
				tail--
			}
			dq[tail] = int32(S)
			tail++
		}
		tEnd := S*g + g - 1
		if tEnd > tHi {
			tEnd = tHi
		}
		// Blocks below tLo's window start still need pushing before any
		// cell is emitted; emit() is a no-op until t's block arrives.
		if tEnd >= t {
			emit(tEnd)
		}
	}
	emit(tHi)
	if runStart >= 0 {
		out = append(out, rspan{runStart, tHi})
	}
	return out, cells
}

// refineFineSolve runs the exact DP over the surviving fine band: each
// layer's retained cells scan the previous layer's retained spans with the
// same unchecked gather kernel as the full solve, so every computed value
// is the exact float64 minimum over the surviving candidates.
func refineFineSolve(ctx context.Context, n, C int, costs [][]float64, spans [][]rspan, s *scratch, path *solvePath) error {
	for p := 0; p < n; p++ {
		if len(spans[p]) == 0 {
			// No surviving cells in some layer: mark the solve infeasible so
			// the caller's defensive check routes to the exact kernel.
			s.rows[n][C] = inf
			return nil
		}
	}
	prevSpans := []rspan{{0, 0}} // base row: only dp[0] is finite
	var cells int64
	for p := 0; p < n; p++ {
		if err := refineCtxCheck(ctx); err != nil {
			return err
		}
		loEx, hiEx := spans[p][0].a, spans[p][len(spans[p])-1].b
		prevLoEx, prevHiEx := prevSpans[0].a, prevSpans[len(prevSpans)-1].b
		// Only the costsRev entries the band scans — off+j for t in this
		// layer's extent, j in the previous layer's — are ever read; the
		// rest of the row stays stale.
		rLo := C - hiEx + prevLoEx
		if rLo < 0 {
			rLo = 0
		}
		rHi := C - loEx + prevHiEx
		if rHi > C {
			rHi = C
		}
		costsRev := s.costsRev[:C+1]
		row := costs[p]
		for i := rLo; i <= rHi; i++ {
			costsRev[i] = row[C-i]
		}
		// Pruned cells inside the extent must read as inf (the
		// reconstruction window scans across gaps); outside it the layer
		// meta keeps every reader away, so no fill is needed.
		next := s.rows[p+1]
		for t := loEx; t <= hiEx; t++ {
			next[t] = inf
		}
		prev := s.rows[p]
		for _, ts := range spans[p] {
			for t := ts.a; t <= ts.b; t++ {
				off := C - t
				best := inf
				for _, js := range prevSpans {
					a, b := js.a, js.b
					if a > t {
						break
					}
					if b > t {
						b = t
					}
					if v := minPlus(prev[a:b+1], costsRev[off+a:off+b+1]); v < best {
						best = v
					}
				}
				next[t] = best
				cells++
			}
		}
		s.metas[p] = layerMeta{lo: 0, hi: C, prevLo: prevLoEx, prevHi: prevHiEx}
		prevSpans = spans[p]
	}
	path.cells += cells
	path.bandCells = cells
	return nil
}
