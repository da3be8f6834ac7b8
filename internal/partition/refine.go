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
// narrow band around the optimum instead of all O(P·C²) cells. One band
// test and one band format serve every level: refineBand cuts the next
// grid's band, coarse or fine, as per-row runs of surviving cells, which
// refineComputeLevel and the fine pass (refineFineSolve) iterate.
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
	// costs O(n·TB_child) instead of rescanning all n·(C+1) fine cells:
	// level i takes minima over blocks of gs[i]/childG entries of the
	// level below it (the fine costs, childG = 1, for the finest). All
	// levels share one pooled arena; every entry is written below, so
	// reuse needs no clearing.
	cmins := make([][]float64, len(gs))
	cminTotal := 0
	for _, g := range gs {
		cminTotal += n * (C/g + 1)
	}
	s.cminBuf = growFloats(s.cminBuf, cminTotal)
	cminOff := 0
	childG := 1
	for i := len(gs) - 1; i >= 0; i-- {
		g := gs[i]
		TB, TBc, r := C/g+1, C/childG+1, g/childG
		cm := s.cminBuf[cminOff : cminOff+n*TB]
		cminOff += n * TB
		for p := 0; p < n; p++ {
			child := costs[p]
			if childG > 1 {
				child = cmins[i+1][p*TBc : (p+1)*TBc]
			}
			out := cm[p*TB : (p+1)*TB]
			for T := 0; T < TB; T++ {
				a := T * r
				b := min(a+r-1, TBc-1)
				// Paired accumulators as in minPlusGeneric: min is exact on
				// certified costs, so the split changes no bits, only the
				// dependency chain.
				m, m2 := child[a], inf
				u := a + 1
				for ; u+1 <= b; u += 2 {
					if child[u] < m {
						m = child[u]
					}
					if child[u+1] < m2 {
						m2 = child[u+1]
					}
				}
				if u <= b && child[u] < m {
					m = child[u]
				}
				if m2 < m {
					m = m2
				}
				out[T] = m
			}
		}
		cmins[i] = cm
		childG = g
	}

	// The coarsest level is banded by nothing: every row is one run over
	// its whole grid. Each level then cuts the next one's band, the last
	// coarse level the fine grid's (g2 = 1, forward runs only).
	B := inf
	budget := refineWorkBudget(n, C)
	bandF := make([][]rspan, n)
	for p := range bandF {
		bandF[p] = []rspan{{0, C / gs[0]}}
	}
	bandB := bandF
	for i, g := range gs {
		if err := refineCtxCheck(ctx); err != nil {
			return false, err
		}
		// The banded upper solve pays a second candidate stream per cell,
		// so it runs only on the coarse levels (g ≥ 64), where bands are
		// small and a tighter B still has finer levels left to narrow; on
		// the finer levels polish has already pulled B close to optimal
		// and the extra stream would cost more than the band it saves.
		lv, cand, candObj := refineComputeLevel(n, C, g, costs, cmins[i], bandF, bandB, i+1 < len(gs) && g >= 64, s)
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
		g2 := 1
		if i+1 < len(gs) {
			g2 = gs[i+1]
		}
		var work int64
		bandF, bandB, work = refineBand(lv, n, C, g2, B, s)
		if work > budget {
			// Pruning is not biting (adversarially flat instance);
			// finishing the descent would cost more than the exact solve.
			path.refineFallback = true
			return false, nil
		}
	}

	// Solve the fine band's surviving cells exactly.
	if err := refineFineSolve(ctx, n, C, costs, bandF, s, path); err != nil {
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
// no feasible chain. Rows are written only on their band's extent
// (bandF for the forward tables, bandB for the backward one); the finite
// spans the next consumer may read are recorded in lv.dspan/lv.espan.
func refineComputeLevel(n, C, g int, costs [][]float64, cmin []float64, bandF, bandB [][]rspan, upper bool, s *scratch) (*refineLevel, []int, float64) {
	TB := C/g + 1

	lv := &refineLevel{g: g, TB: TB}
	lv.dlow = make([][]float64, n)
	lv.elow = make([][]float64, n)
	lv.dspan = make([][2]int, n)
	lv.espan = make([][2]int, n)
	// One pooled arena serves every level: the previous level's rows are
	// dead once refineBand has cut this level's band from them.
	s.lvlBuf = growFloats(s.lvlBuf, 2*n*TB)
	for p := 0; p < n; p++ {
		lv.dlow[p] = s.lvlBuf[p*TB : (p+1)*TB]
		lv.elow[p] = s.lvlBuf[(n+p)*TB : (n+p+1)*TB]
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
	boundDP(lv.dlow, lv.dspan, bandF, cmin, cminRev, TB, 0, 1)
	boundDP(lv.elow, lv.espan, bandB, cmin, cminRev, TB, n-1, -1)
	if !upper {
		return lv, nil, inf
	}

	// The upper solve: the forward DP again over representative costs,
	// gathered into contiguous rows once (the inner loop re-reads them per
	// cell), on the same band and predecessor spans as dlow. It needs its
	// argmin, so it stays a scalar leftmost strict-improve scan.
	s.upBuf = growFloats(s.upBuf, 2*n*TB)
	dup, crep := s.upBuf[:n*TB], s.upBuf[n*TB:]
	for p := 0; p < n; p++ {
		row := costs[p]
		cr := crep[p*TB : (p+1)*TB]
		for T := 0; T < TB; T++ {
			cr[T] = row[T*g]
		}
	}
	chUp := growInt32s(&s.chBuf, n*TB)
	for p := 0; p < n; p++ {
		runs := bandF[p]
		if len(runs) == 0 {
			continue
		}
		row, crow, ch := dup[p*TB:(p+1)*TB], crep[p*TB:(p+1)*TB], chUp[p*TB:(p+1)*TB]
		fillInf(row, runs)
		if p == 0 {
			for _, r := range runs {
				for S := r.a; S <= r.b; S++ {
					row[S] = crow[S]
					ch[S] = int32(S)
				}
			}
			continue
		}
		pMin, pMax := lv.dspan[p-1][0], lv.dspan[p-1][1]
		if pMax < 0 {
			continue
		}
		prev := dup[(p-1)*TB : p*TB]
		for _, r := range runs {
			for S := r.a; S <= r.b; S++ {
				bestU := inf
				bestT := int32(0)
				for T := max(0, S-pMax); T <= S-pMin; T++ {
					if cand := prev[S-T] + crow[T]; cand < bestU {
						bestU = cand
						bestT = int32(T)
					}
				}
				row[S] = bestU
				ch[S] = bestT
			}
		}
	}

	// Upper-bound candidate: reconstruct the representative allocation,
	// give the sub-block remainder to program 0, and accumulate the fine
	// costs in layer order — the same float64 reduction order the DP path
	// values use, so the result can never undercut the float64 optimum.
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

// boundDP fills one direction's lower-bound rows: dlow (first = 0,
// dir = 1) or elow (first = n−1, dir = −1). The first row is program
// first's block minima; each later row p is min over T of
// rows[p−dir][S−T] + cmin_p[T]. Row p is written only on its band's
// extent — inf off its runs — and span[p] records its finite range
// (the first row's: its band's extent); the predecessor scan covers
// only the previous row's span, since every predecessor outside it is
// inf. That restriction is what keeps banded levels O(band²) rather
// than O(band·TB). inf predecessors inside the span need no guard:
// inf + a non-negative cost is ≥ inf, so it never undercuts the
// sentinel a scan starts from.
func boundDP(rows [][]float64, span [][2]int, band [][]rspan, cmin, cminRev []float64, TB, first, dir int) {
	pMin, pMax := TB, -1
	for i, p := 0, first; i < len(rows); i, p = i+1, p+dir {
		row, runs := rows[p], band[p]
		fillInf(row, runs)
		nMin, nMax := TB, -1
		for _, r := range runs {
			if i == 0 {
				copy(row[r.a:r.b+1], cmin[p*TB+r.a:p*TB+r.b+1])
				nMin, nMax = min(nMin, r.a), r.b
				continue
			}
			if pMax < 0 {
				break
			}
			prev, rv := rows[p-dir], cminRev[p*TB:(p+1)*TB]
			for S := r.a; S <= r.b; S++ {
				t0, t1 := max(0, S-pMax), S-pMin
				v := inf
				if t0 <= t1 {
					v = minPlus(prev[S-t1:S-t0+1], rv[TB-1-t1:TB-t0])
				}
				row[S] = v
				if v != inf {
					nMin, nMax = min(nMin, S), S
				}
			}
		}
		span[p] = [2]int{nMin, nMax}
		pMin, pMax = nMin, nMax
	}
}

// fillInf sets row to inf across the extent of runs, so a banded row's
// pruned cells read as inf to every consumer that stays inside it.
func fillInf(row []float64, runs []rspan) {
	if len(runs) == 0 {
		return
	}
	for S := runs[0].a; S <= runs[len(runs)-1].b; S++ {
		row[S] = inf
	}
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

// growInt32s mirrors growFloats for the refine scratch.
func growInt32s(b *[]int32, n int) []int32 {
	if cap(*b) < n {
		*b = make([]int32, n)
	}
	*b = (*b)[:n]
	return *b
}

// rspan is a run [a, b] of surviving cells in one row of a band.
type rspan struct{ a, b int }

// refineBand cuts the next level's band, at granularity g2, from the
// current level's bounds: cell (p, S2) survives iff some fine total it
// covers admits a completion whose two-sided lower bound stays within
// B·(1+refineMargin). It returns each row's surviving runs — forward
// (programs 0..p placed) in bandF and backward (programs p..n−1) in
// bandB — and the next stage's projected scan cost, so the caller can
// bail before paying for a band that is not narrow. A row side whose own
// bound covers k programs is one reverse bandSweep over the opposite
// side's bound (n−k programs) into a buffer, then one forward bandRuns
// over its own bound, fused with the band test. On a coarse level the
// cost is Σ_p extent(p)·extent(p−1) over both sides, the run extents
// being what the level's loops iterate. At g2 = 1 — the fine grid — only
// the forward runs are cut (the fine pass reads nothing else) and the
// cost is Σ_p cells(p)·cells(p−1) over surviving cells.
func refineBand(lv *refineLevel, n, C, g2 int, B float64, s *scratch) (bandF, bandB [][]rspan, work int64) {
	TB2 := C/g2 + 1
	limit := B * (1 + refineMargin)
	g := lv.g
	s.sweepBuf = growFloats(s.sweepBuf, TB2)
	opp := s.sweepBuf
	dq := growInt32s(&s.dqBuf, lv.TB)
	// Runs of every row go to one pooled buffer; the previous level's
	// band, which lived there too, is dead once refineComputeLevel has
	// read it.
	runs := s.runBuf[:0]
	cut := func(own []float64, ownSp [2]int, other []float64, otherSp [2]int, k int) ([]rspan, int64) {
		wT := k * (g2 - 1)
		var oLo, oHi int
		var o []float64
		if k == n {
			// Empty opposite side: zero cost exactly when the target
			// interval reaches C.
			oLo, oHi = 0, TB2-1
			if thr := C - wT; thr > 0 {
				oLo = (thr + g2 - 1) / g2
			}
		} else {
			oLo, oHi = bandSweep(other, otherSp[0], otherSp[1], TB2, g2, C, wT, (n-k)*(g-1), g, dq, opp)
			o = opp
		}
		start := len(runs)
		var cells int64
		runs, cells = bandRuns(own, ownSp[0], ownSp[1], oLo, oHi, g2, C, wT, k*(g-1), g, o, limit, dq, runs)
		row := runs[start:len(runs):len(runs)]
		switch {
		case g2 == 1:
			return row, cells
		case len(row) == 0:
			return row, 0
		}
		return row, int64(row[len(row)-1].b - row[0].a + 1)
	}
	bandF = make([][]rspan, n)
	if g2 > 1 {
		bandB = make([][]rspan, n)
	}
	prevF, prevB := int64(1), int64(1)
	for p := 0; p < n; p++ {
		var other []float64
		var otherSp [2]int
		if p+1 < n {
			other, otherSp = lv.elow[p+1], lv.espan[p+1]
		}
		var w int64
		bandF[p], w = cut(lv.dlow[p], lv.dspan[p], other, otherSp, p+1)
		work += w * prevF
		prevF = w
		if g2 == 1 {
			continue
		}
		if p > 0 {
			other, otherSp = lv.dlow[p-1], lv.dspan[p-1]
		}
		bandB[p], w = cut(lv.elow[p], lv.espan[p], other, otherSp, n-p)
		work += w * prevB
		prevB = w
	}
	s.runBuf = runs
	return bandF, bandB, work
}

// Both band sweeps bound a row side over the target intervals its cells
// cover, over the granularity-g row of the current level whose finite
// span is [fMin, fMax]: a target interval [tLo, tHi] reaches the blocks s
// with s·g ≤ tHi and s·g + wRow ≥ tLo. They visit the cells in the order
// that makes both interval ends nondecreasing, so both window ends
// advance incrementally — a monotone-deque sweep, O(range) with no
// per-cell divisions.

// bandSweep fills out[S2] with the opposite side's bound for cell S2:
// the minimum of row over the window of the reflected target interval
// [C−S2·g2−wT, C−S2·g2], visited with S2 descending. Only the S2 range
// whose window can reach the row's finite span is written; the range is
// returned (hi < lo when empty) and entries outside it are +inf by
// convention.
func bandSweep(row []float64, fMin, fMax, TB2, g2, C, wT, wRow, g int, dq []int32, out []float64) (int, int) {
	if fMax < fMin {
		return 0, -1
	}
	s2lo, s2hi := 0, min((C-fMin*g)/g2, TB2-1)
	if a := C - fMax*g - wRow - wT; a > 0 {
		s2lo = (a + g2 - 1) / g2
	}
	head, tail := 0, 0
	sHi, sHiT := fMin-1, fMin*g // sHiT = (sHi+1)·g; blocks outside [fMin, fMax] are never pushed
	for S2, tHi := s2hi, C-s2hi*g2; S2 >= s2lo; S2, tHi = S2-1, tHi+g2 {
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
		for tail > head && int(dq[head])*g+wRow < tHi-wT {
			head++
		}
		if tail > head {
			out[S2] = row[dq[head]]
		} else {
			out[S2] = inf
		}
	}
	return s2lo, s2hi
}

// bandRuns is the own side of a band row, fused with the band test: it
// takes the minimum of row over the window of each target interval
// [S2·g2, min(C, S2·g2+wT)], S2 ascending, and appends to runs the
// maximal runs of S2 in [oLo, oHi] where that minimum plus opp[S2] (plus
// zero when opp is nil) is within limit. It returns runs and the number
// of surviving cells.
func bandRuns(row []float64, fMin, fMax, oLo, oHi, g2, C, wT, wRow, g int, opp []float64, limit float64, dq []int32, runs []rspan) ([]rspan, int64) {
	if fMax < fMin {
		return runs, 0
	}
	lo, hi := oLo, min(oHi, (fMax*g+wRow)/g2)
	if a := fMin*g - wT; a > 0 {
		lo = max(lo, (a+g2-1)/g2)
	}
	var cells int64
	head, tail := 0, 0
	sHi, sHiT := fMin-1, fMin*g
	runStart := -1
	for S2, tLo := lo, lo*g2; S2 <= hi; S2, tLo = S2+1, tLo+g2 {
		tHi := min(C, tLo+wT)
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
		in := false
		if tail > head {
			v := row[dq[head]]
			if opp != nil {
				v += opp[S2]
			}
			in = v <= limit
		}
		if in {
			if runStart < 0 {
				runStart = S2
			}
			cells++
		} else if runStart >= 0 {
			runs = append(runs, rspan{runStart, S2 - 1})
			runStart = -1
		}
	}
	if runStart >= 0 {
		runs = append(runs, rspan{runStart, hi})
	}
	return runs, cells
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
