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
// +Inf's, so one branch-free running max decides the whole row. Four
// interleaved maxima shorten the dependency chain; max is exact, so the
// split changes nothing.
func certifyCostRow(row []float64) (layerMax float64, ok bool) {
	var m0, m1, m2, m3 uint64
	i := 0
	for ; i+4 <= len(row); i += 4 {
		m0 = max(m0, math.Float64bits(row[i]))
		m1 = max(m1, math.Float64bits(row[i+1]))
		m2 = max(m2, math.Float64bits(row[i+2]))
		m3 = max(m3, math.Float64bits(row[i+3]))
	}
	for ; i < len(row); i++ {
		m0 = max(m0, math.Float64bits(row[i]))
	}
	maxBits := max(m0, m1, m2, m3)
	return math.Float64frombits(maxBits), maxBits <= posInfBits
}

// posInfBits is +Inf's bit pattern, the largest one certifyCostRow
// accepts.
const posInfBits = 0x7ff0000000000000

// CostRow is one program's cost row prepared for the solver: the costs,
// their certificate (certifyCostRow's verdict and maximum) and, at sizes
// the refinement rung serves, the row's block-minimum pyramid. All of it
// depends on the row alone, so a caller that solves the same row in many
// groups prepares it once (Problem.Rows); every other solve prepares its
// rows on the fly through the same constructor. A CostRow is read-only
// once built and safe to share between goroutines.
type CostRow struct {
	costs []float64
	max   float64
	ok    bool
	// pyr holds, per refinement level coarsest first, the level's block
	// minima (C/g+1 entries) followed by the same minima reversed, so
	// both streams of a bound scan ascend. Empty when the row fails its
	// certificate or C is below refineMinUnits.
	pyr []float64
}

// PrepareRow prepares a cost row: costs[u] is the program's cost at u
// units, for u in [0, len(costs)−1], and a Problem using the row must
// have Units = len(costs)−1. The row keeps costs without copying them,
// so they must not change while the row is in use.
func PrepareRow(costs []float64) *CostRow {
	var buf [8]int
	r := new(CostRow)
	r.prepare(costs, refineLevels(buf[:0], len(costs)-1), nil)
	return r
}

// prepare is the one CostRow constructor: it certifies costs and, when
// the row certifies and gs (refineLevels of len(costs)−1) is not empty,
// builds its pyramid in pyr, which must then hold pyramidLen entries
// (nil allocates them).
func (r *CostRow) prepare(costs []float64, gs []int, pyr []float64) {
	r.costs = costs
	r.max, r.ok = certifyCostRow(costs)
	r.pyr = nil
	if !r.ok || len(gs) == 0 {
		return
	}
	C := len(costs) - 1
	if pyr == nil {
		pyr = make([]float64, pyramidLen(C, gs))
	}
	// Built fine-to-coarse so each level's minima cost O(TB_child)
	// instead of rescanning all C+1 costs: level i takes minima over
	// blocks of gs[i]/childG entries of the level below it (the costs
	// themselves, childG = 1, for the finest).
	off := len(pyr)
	child, childG := costs, 1
	for i := len(gs) - 1; i >= 0; i-- {
		g := gs[i]
		TB, TBc, rb := C/g+1, len(child), g/childG
		off -= 2 * TB
		out := pyr[off : off+TB]
		for T := range out {
			a := T * rb
			b := min(a+rb-1, TBc-1)
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
		rev := pyr[off+TB : off+2*TB]
		for T, v := range out {
			rev[TB-1-T] = v
		}
		child, childG = out, g
	}
	r.pyr = pyr
}

// refineLevels writes the level schedule for C into gs[:0] and returns
// it: the coarsest power of refineLevelRatio whose grid fits
// refineCoarsestCells, then /ratio per level down to (but not including)
// the fine grid. It is empty below refineMinUnits.
func refineLevels(gs []int, C int) []int {
	gs = gs[:0]
	if C < refineMinUnits {
		return gs
	}
	top := 1
	for C/top+1 > refineCoarsestCells {
		top *= refineLevelRatio
	}
	for g := top; g >= 2; g /= refineLevelRatio {
		gs = append(gs, g)
	}
	return gs
}

// pyramidLen is the size of a CostRow pyramid for C units over the
// levels gs.
func pyramidLen(C int, gs []int) int {
	n := 0
	for _, g := range gs {
		n += 2 * (C/g + 1)
	}
	return n
}

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
	s.gs = refineLevels(s.gs, C)
	gs := s.gs

	// The certified rows: the caller's prepared ones, or each row prepared
	// here into the arena. Every cost must be finite, non-negative and
	// free of negative zeros, and the cumulative magnitude inside the
	// unchecked-kernel safe range.
	rows := pr.Rows
	if rows == nil {
		rows = s.prepareRows(pr, gs)
	}
	costBound := 0.0
	for _, r := range rows {
		if !r.ok {
			path.refineFallback = true
			return false, nil
		}
		costBound += r.max
	}
	if !(costBound < costSafeLimit) {
		path.refineFallback = true
		return false, nil
	}

	// The coarsest level is banded by nothing: every row is one run over
	// its whole grid. Each level then cuts the next one's band, the last
	// coarse level the fine grid's (g2 = 1, forward runs only).
	B := inf
	budget := refineWorkBudget(n, C)
	runs := s.runBuf[:0]
	for range n {
		runs = append(runs, rspan{0, C / gs[0]})
	}
	s.runBuf = runs
	s.bandF = grow(s.bandF, n)
	bandF := s.bandF
	for p := range bandF {
		bandF[p] = runs[p : p+1 : p+1]
	}
	bandB := bandF
	off := 0 // level i's offset in every row's pyramid
	for i, g := range gs {
		if err := refineCtxCheck(ctx); err != nil {
			return false, err
		}
		// The banded upper solve pays a second candidate stream per cell,
		// so it runs only on the coarse levels (g ≥ 64), where bands are
		// small and a tighter B still has finer levels left to narrow; on
		// the finer levels polish has already pulled B close to optimal
		// and the extra stream would cost more than the band it saves.
		lv, cand, candObj := refineComputeLevel(n, C, g, rows, off, bandF, bandB, i+1 < len(gs) && g >= 64, s)
		off += 2 * lv.TB
		if cand != nil && candObj < B {
			// Polishing the representative allocation at fine granularity
			// tightens B well below the coarse-grid slack, which narrows
			// every band this level and below will cut.
			B = refinePolish(rows, cand, C, candObj)
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
	if err := refineFineSolve(ctx, n, C, rows, bandF, s, path); err != nil {
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

// prepareRows prepares each of pr's cost rows over [0, C] in the arena —
// a CostTable row in place, a custom Cost's or a curve's costs written
// into the arena first — and returns them.
func (s *scratch) prepareRows(pr *Problem, gs []int) []*CostRow {
	n, C := len(pr.Curves), pr.Units
	L := pyramidLen(C, gs)
	if pr.CostTable == nil {
		s.costBuf = grow(s.costBuf, n*(C+1))
	}
	s.pyrBuf = grow(s.pyrBuf, n*L)
	s.rowVals, s.rowPtrs = grow(s.rowVals, n), grow(s.rowPtrs, n)
	for p := range n {
		var buf []float64 // costWindow's buffer; a CostTable needs none
		if pr.CostTable == nil {
			buf = s.costBuf[p*(C+1) : (p+1)*(C+1)]
		}
		s.rowVals[p].prepare(pr.costWindow(p, 0, C, buf), gs, s.pyrBuf[p*L:(p+1)*L])
		s.rowPtrs[p] = &s.rowVals[p]
	}
	return s.rowPtrs
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
// over the rows' block minima (at offset off of each pyramid), plus (on
// coarse levels) a banded upper solve over representative costs
// (costs[T·g], an achievable allocation). It returns the representative
// allocation and its objective — evaluated on the fine costs, in DP
// accumulation order — as an upper-bound candidate, or (nil, inf) when no
// upper solve ran or it found no feasible chain. Rows are written only on
// their band's extent (bandF for the forward tables, bandB for the
// backward one); the finite spans the next consumer may read are recorded
// in lv.dspan/lv.espan. The level and the candidate live in the arena.
func refineComputeLevel(n, C, g int, rows []*CostRow, off int, bandF, bandB [][]rspan, upper bool, s *scratch) (*refineLevel, []int, float64) {
	TB := C/g + 1

	// One pooled arena serves every level: the previous level's rows are
	// dead once refineBand has cut this level's band from them.
	lv := &s.lv
	lv.g, lv.TB = g, TB
	lv.dlow, lv.elow = grow(lv.dlow, n), grow(lv.elow, n)
	lv.dspan, lv.espan = grow(lv.dspan, n), grow(lv.espan, n)
	s.lvlBuf = grow(s.lvlBuf, 2*n*TB)
	for p := 0; p < n; p++ {
		lv.dlow[p] = s.lvlBuf[p*TB : (p+1)*TB]
		lv.elow[p] = s.lvlBuf[(n+p)*TB : (n+p+1)*TB]
	}
	boundDP(lv.dlow, lv.dspan, bandF, rows, off, TB, 0, 1)
	boundDP(lv.elow, lv.espan, bandB, rows, off, TB, n-1, -1)
	if !upper {
		return lv, nil, inf
	}

	// The upper solve: the forward DP again over representative costs,
	// gathered into contiguous rows once (the inner loop re-reads them per
	// cell), on the same band and predecessor spans as dlow. It needs its
	// argmin, so it stays a scalar leftmost strict-improve scan.
	s.upBuf = grow(s.upBuf, 2*n*TB)
	dup, crep := s.upBuf[:n*TB], s.upBuf[n*TB:]
	for p := 0; p < n; p++ {
		row := rows[p].costs
		cr := crep[p*TB : (p+1)*TB]
		for T := 0; T < TB; T++ {
			cr[T] = row[T*g]
		}
	}
	s.chBuf = grow(s.chBuf, n*TB)
	chUp := s.chBuf
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
	s.cand = grow(s.cand, n)
	alloc := s.cand
	S := Su
	for p := n - 1; p >= 1; p-- {
		T := int(chUp[p*TB+S])
		alloc[p] = T * g
		S -= T
	}
	alloc[0] = S*g + (C - Su*g)
	obj := 0.0
	for p := 0; p < n; p++ {
		obj += rows[p].costs[alloc[p]]
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
// sentinel a scan starts from. The block minima and their reversal are
// the level's slices of each CostRow pyramid, at offset off.
func boundDP(rows [][]float64, span [][2]int, band [][]rspan, prep []*CostRow, off, TB, first, dir int) {
	pMin, pMax := TB, -1
	for i, p := 0, first; i < len(rows); i, p = i+1, p+dir {
		row, runs := rows[p], band[p]
		fillInf(row, runs)
		nMin, nMax := TB, -1
		for _, r := range runs {
			if i == 0 {
				copy(row[r.a:r.b+1], prep[p].pyr[off+r.a:off+r.b+1])
				nMin, nMax = min(nMin, r.a), r.b
				continue
			}
			if pMax < 0 {
				break
			}
			prev, rv := rows[p-dir], prep[p].pyr[off+TB:off+2*TB]
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

// refinePolish hill-climbs an upper-bound allocation, in place, at fine
// granularity: pairwise moves in power-of-two step sizes, screened by
// incremental cost deltas and restarted at step 1 after every acceptance.
// The final objective is re-accumulated from scratch in layer order, so
// the returned bound remains an achievable float64 path value regardless
// of what the (cancellation-prone) screening deltas did; B only ever
// tightens.
func refinePolish(rows []*CostRow, a []int, C int, B float64) float64 {
	n := len(a)
	moves := 0
	for moved := true; moved && moves < 4096; {
		moved = false
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i == j {
					continue
				}
				ci, cj := rows[i].costs, rows[j].costs
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
		obj += rows[p].costs[a[p]]
	}
	if obj < B {
		return obj
	}
	return B
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
// side's bound (n−k programs) into segments, then one forward bandRuns
// over its own bound, fused with the band test. On a coarse level the
// cost is Σ_p extent(p)·extent(p−1) over both sides, the run extents
// being what the level's loops iterate. At g2 = 1 — the fine grid — only
// the forward runs are cut (the fine pass reads nothing else) and the
// cost is Σ_p cells(p)·cells(p−1) over surviving cells. The bands' runs
// and row headers live in the arena.
func refineBand(lv *refineLevel, n, C, g2 int, B float64, s *scratch) (bandF, bandB [][]rspan, work int64) {
	TB2 := C/g2 + 1
	limit := B * (1 + refineMargin)
	g := lv.g
	s.dqBuf = grow(s.dqBuf, lv.TB)
	dq := s.dqBuf
	// Runs of every row go to one pooled buffer; the previous level's
	// band, which lived there too, is dead once refineComputeLevel has
	// read it.
	runs := s.runBuf[:0]
	cut := func(own []float64, ownSp [2]int, other []float64, otherSp [2]int, k int) ([]rspan, int64) {
		wT := k * (g2 - 1)
		opp := s.segBuf[:0]
		if k == n {
			// Empty opposite side: zero cost exactly when the target
			// interval reaches C.
			oLo := 0
			if thr := C - wT; thr > 0 {
				oLo = (thr + g2 - 1) / g2
			}
			opp = append(opp, oppSeg{oLo, TB2 - 1, 0})
		} else {
			opp = bandSweep(other, otherSp[0], otherSp[1], TB2, g2, C, wT, (n-k)*(g-1), g, dq, opp)
		}
		s.segBuf = opp
		start := len(runs)
		var cells int64
		runs, cells = bandRuns(own, ownSp[0], ownSp[1], g2, wT, k*(g-1), g, opp, limit, dq, runs)
		row := runs[start:len(runs):len(runs)]
		switch {
		case g2 == 1:
			return row, cells
		case len(row) == 0:
			return row, 0
		}
		return row, int64(row[len(row)-1].b - row[0].a + 1)
	}
	s.bandF = grow(s.bandF, n)
	bandF = s.bandF
	if g2 > 1 {
		s.bandB = grow(s.bandB, n)
		bandB = s.bandB
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
// advance incrementally — a monotone-deque sweep. Both ends move by g2
// per cell and g2 divides g, so a block enters or leaves the window only
// every r = g/g2 cells, at offsets fixed per call: the sweeps walk
// segment by segment, one deque update per event, and the window minimum
// is constant between events. That visits exactly the window contents a
// per-cell walk would, so every band is the same.

// oppSeg is a run [a, b] of cells over which the opposite side's bound
// is v.
type oppSeg struct {
	a, b int
	v    float64
}

// bandSweep appends to segs the opposite side's bound for each cell S2:
// the minimum of row over the window of the reflected target interval
// [C−S2·g2−wT, C−S2·g2], +inf for an empty window, visited with S2
// descending, so the segments descend too. They cover exactly the S2
// range whose window can reach the row's finite span, and none is
// appended when it is empty.
func bandSweep(row []float64, fMin, fMax, TB2, g2, C, wT, wRow, g int, dq []int32, segs []oppSeg) []oppSeg {
	if fMax < fMin {
		return segs
	}
	s2lo, s2hi := 0, min((C-fMin*g)/g2, TB2-1)
	if a := C - fMax*g - wRow - wT; a > 0 {
		s2lo = (a + g2 - 1) / g2
	}
	// Step j = s2hi − S2 has tHi = t0 + j·g2 (t0 ≥ fMin·g ≥ 0). Block s
	// enters at the first j with s·g ≤ tHi, j = s·r − ⌊t0/g2⌋, and leaves
	// at the first j with s·g + wRow < tHi − wT,
	// j = s·r + ⌊(wRow+wT−t0)/g2⌋ + 1.
	r, t0 := g/g2, C-s2hi*g2
	enter0, leave0 := t0/g2, floorDiv(wRow+wT-t0, g2)+1
	last := s2hi - s2lo
	head, tail := 0, 0
	next, nextIn := fMin, fMin*r-enter0 // next block to push, and its step
	for j := 0; j <= last; {
		for ; next <= fMax && nextIn <= j; next, nextIn = next+1, nextIn+r {
			if v := row[next]; v != inf {
				for tail > head && row[dq[tail-1]] >= v {
					tail--
				}
				dq[tail] = int32(next)
				tail++
			}
		}
		for tail > head && int(dq[head])*r+leave0 <= j {
			head++
		}
		end := last
		if next <= fMax {
			end = min(end, nextIn-1)
		}
		v := inf
		if tail > head {
			v = row[dq[head]]
			end = min(end, int(dq[head])*r+leave0-1)
		}
		segs = append(segs, oppSeg{s2hi - end, s2hi - j, v})
		j = end + 1
	}
	return segs
}

// bandRuns is the own side of a band row, fused with the band test: it
// takes the minimum of row over the window of each target interval
// [S2·g2, min(C, S2·g2+wT)], S2 ascending, and appends to runs the
// maximal runs of S2, within the cells opp covers, where that minimum
// plus the opposite side's bound is within limit. opp descends, as
// bandSweep builds it; an empty opposite side is one segment of bound 0.
// The test runs once per stretch of cells where both bounds are
// constant. It returns runs and the number of surviving cells.
func bandRuns(row []float64, fMin, fMax, g2, wT, wRow, g int, opp []oppSeg, limit float64, dq []int32, runs []rspan) ([]rspan, int64) {
	if fMax < fMin || len(opp) == 0 {
		return runs, 0
	}
	k := len(opp) - 1 // the segment holding S2; opp[len(opp)−1] starts lowest
	lo, hi := opp[k].a, min(opp[0].b, (fMax*g+wRow)/g2)
	if a := fMin*g - wT; a > 0 {
		lo = max(lo, (a+g2-1)/g2)
	}
	// Block s enters at the first S2 with s·g ≤ S2·g2 + wT,
	// S2 = s·r − ⌊wT/g2⌋ (the clip of tHi at C never binds: s·g ≤ C for
	// every block of the row), and leaves at the first S2 with
	// s·g + wRow < S2·g2, S2 = s·r + ⌊wRow/g2⌋ + 1.
	r := g / g2
	leave0 := wRow/g2 + 1
	var cells int64
	head, tail := 0, 0
	next, nextIn := fMin, fMin*r-wT/g2 // next block to push, and its S2
	runStart := -1
	for S2 := lo; S2 <= hi; {
		for ; next <= fMax && nextIn <= S2; next, nextIn = next+1, nextIn+r {
			if v := row[next]; v != inf {
				for tail > head && row[dq[tail-1]] >= v {
					tail--
				}
				dq[tail] = int32(next)
				tail++
			}
		}
		for tail > head && int(dq[head])*r+leave0 <= S2 {
			head++
		}
		end := hi
		if next <= fMax {
			end = min(end, nextIn-1)
		}
		if tail == head {
			// Empty window: every cell of the segment is out.
			if runStart >= 0 {
				runs = append(runs, rspan{runStart, S2 - 1})
				runStart = -1
			}
			S2 = end + 1
			continue
		}
		m := row[dq[head]]
		end = min(end, int(dq[head])*r+leave0-1)
		for S2 <= end {
			for opp[k].b < S2 {
				k--
			}
			e := min(end, opp[k].b)
			if m+opp[k].v <= limit {
				if runStart < 0 {
					runStart = S2
				}
				cells += int64(e - S2 + 1)
			} else if runStart >= 0 {
				runs = append(runs, rspan{runStart, S2 - 1})
				runStart = -1
			}
			S2 = e + 1
		}
	}
	if runStart >= 0 {
		runs = append(runs, rspan{runStart, hi})
	}
	return runs, cells
}

// floorDiv is ⌊a/b⌋ for b > 0.
func floorDiv(a, b int) int {
	q := a / b
	if a%b != 0 && a < 0 {
		q--
	}
	return q
}

// refineFineSolve runs the exact DP over the surviving fine band: each
// layer's retained cells scan the previous layer's retained spans with the
// same unchecked gather kernel as the full solve, so every computed value
// is the exact float64 minimum over the surviving candidates.
func refineFineSolve(ctx context.Context, n, C int, rows []*CostRow, spans [][]rspan, s *scratch, path *solvePath) error {
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
		row := rows[p].costs
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
