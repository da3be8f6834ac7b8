package partition

import (
	"context"
	"math"
	"sync"

	"partitionshare/internal/obs"
)

// Observability names for the DP core, package-prefixed dotted.snake per
// the obsname registry convention. Each metric/span name is declared
// exactly once and shared by every solve path.
const (
	spanSolve = "partition.solve"

	mSolves           = "partition.solves"
	mDPCells          = "partition.dp_cells"
	mPathRefineSolves = "partition.path_refine_solves"
	mRefineBandCells  = "partition.refine_band_cells"
	mRefineFallbacks  = "partition.refine_fallbacks"
	mPathExactLayers  = "partition.path_exact_layers"
)

// This file holds the DP core shared by Optimize, OptimizeContext, and
// (through Optimize) OptimizeWithBaseline and the other constrained
// optimizers. The kernel computes one layer of the Eq. 16 recurrence in
// gather form — next[t] = min over u of combine(dp[t−u], cost(u)) — which
// keeps the running minimum in a register instead of read-modify-writing
// next[t] per candidate as the scatter form does.
//
// Four observations make the layer loop tight without changing a single
// output bit relative to the original scatter implementation:
//
//  1. Specialization: the Sum/Minimax branch is hoisted out of the inner
//     loop into dedicated kernels, chosen once per solve.
//
//  2. Feasible-interval trimming: each program's allocation range [lo, hi]
//     is a contiguous interval, so the set of reachable unit totals after p
//     layers is the interval [Σlo, min(C, Σhi)] and every cell inside it is
//     finite. The kernel iterates only over candidate predecessors inside
//     the previous layer's interval, which both skips infeasible work (the
//     scatter form's dp[k]==inf scan) and — when costs are well-scaled —
//     licenses an inner loop with no feasibility check at all.
//
//  3. Reversed cost windows: candidates for cell t are dp[j] (ascending j)
//     paired with cost(t−j) (descending unit). Storing the layer costs
//     reversed makes both streams ascend, so the inner loop is two
//     contiguous reads, an add (or max), and a register compare.
//
//  4. One min-plus kernel: every unchecked Sum scan is minPlus (minplus.go,
//     SSE2 on amd64), which takes min over candidates in any order and
//     with MINPD. That is exact here: float64 min never rounds, and the
//     only operands MINPD and a strict-< scan disagree on — NaN and a ±0
//     tie — never reach an unchecked scan (non-finite costs force checked
//     mode, and from the +0 base row no sum is −0; DESIGN.md §13.4).
//
// Values-only rows + lazy reconstruction: the kernels compute DP values
// only — no per-cell choice table. Every layer's full row is retained in
// the scratch arena, and after the last layer the allocation is rebuilt by
// rescanning, at each of the n on-path cells, the leftmost strict-improve
// argmin over the cell's full candidate window (reconstructAlloc). The
// scatter reference visits predecessors k ascending with a strict compare,
// so ties keep the smallest k (largest unit count u); the rescan replays
// exactly that order and compare over exactly the reference's candidate
// values, so the allocation — including tie-breaking — is bit-identical to
// ReferenceOptimize *regardless of how the layer values were computed*.
// That independence is what lets the refinement rung (refine.go) schedule
// the min computations differently while keeping every output bit: it only
// ever has to reproduce the row values.

const inf = math.MaxFloat64

// costSafeLimit bounds the cumulative cost magnitude under which the
// unchecked kernels are provably exact: while every |cost| sum so far stays
// below it, no dp cell inside the feasible interval can reach
// math.MaxFloat64 (the infeasibility sentinel) or overflow. Beyond it — or
// when a custom Cost function returns NaN or ±Inf — the solve falls back to
// the checked kernels, which skip sentinel cells exactly like the original
// implementation.
const costSafeLimit = 8.9e307

// layerSpec describes one DP layer for the kernels.
type layerSpec struct {
	dp, next []float64
	costsRev []float64 // costsRev[i] = cost(hi − i)
	lo, hi   int
	// prevLo, prevHi delimit the previous layer's feasible interval.
	prevLo, prevHi int
	minimax        bool
	checked        bool
}

// layerMeta records, per solved layer, the geometry reconstructAlloc needs
// to replay the layer's candidate windows.
type layerMeta struct {
	lo, hi         int
	prevLo, prevHi int
}

// runLayer fills next[tLo:] with the layer's DP values.
func runLayer(sp *layerSpec, tLo int) {
	newLo := sp.prevLo + sp.lo
	newHi := sp.prevHi + sp.hi
	dp, next := sp.dp, sp.next
	for t := tLo; t < len(next); t++ {
		if t < newLo || t > newHi {
			next[t] = inf
			continue
		}
		j0, j1 := sp.prevLo, sp.prevHi
		if v := t - sp.hi; v > j0 {
			j0 = v
		}
		if v := t - sp.lo; v < j1 {
			j1 = v
		}
		switch {
		case sp.checked && sp.minimax:
			next[t] = cellMinimaxCheckedVal(dp, sp.costsRev, sp.hi-t, j0, j1)
		case sp.checked:
			next[t] = cellSumCheckedVal(dp, sp.costsRev, sp.hi-t, j0, j1)
		case sp.minimax:
			next[t] = cellMinimaxVal(dp, sp.costsRev, sp.hi-t, j0, j1)
		default:
			// Unchecked Sum: every dp[j] in [j0, j1] is finite by the
			// interval invariant and cost magnitudes are bounded.
			off := sp.hi - t
			next[t] = minPlus(dp[j0:j1+1], sp.costsRev[off+j0:off+j1+1])
		}
	}
}

// cellMinimaxVal scans candidates for one Minimax cell with no feasibility
// check: every dp[j] in [j0, j1] is finite by the interval invariant.
// math.Max is used (not a hand-rolled compare) so NaN and signed-zero
// handling match the original.
func cellMinimaxVal(dp, costsRev []float64, off, j0, j1 int) float64 {
	dpw := dp[j0 : j1+1]
	cw := costsRev[off+j0 : off+j1+1 : off+j1+1]
	cw = cw[:len(dpw)]
	best := inf
	for i, v := range dpw {
		if cand := math.Max(v, cw[i]); cand < best {
			best = cand
		}
	}
	return best
}

// cellSumCheckedVal is the exact-semantics fallback: it skips sentinel
// cells the way the scatter implementation skipped dp[k] == inf, which
// matters only when custom costs are non-finite or astronomically large.
func cellSumCheckedVal(dp, costsRev []float64, off, j0, j1 int) float64 {
	best := inf
	for j := j0; j <= j1; j++ {
		prev := dp[j]
		if prev == inf {
			continue
		}
		if cand := prev + costsRev[off+j]; cand < best {
			best = cand
		}
	}
	return best
}

func cellMinimaxCheckedVal(dp, costsRev []float64, off, j0, j1 int) float64 {
	best := inf
	for j := j0; j <= j1; j++ {
		prev := dp[j]
		if prev == inf {
			continue
		}
		if cand := math.Max(prev, costsRev[off+j]); cand < best {
			best = cand
		}
	}
	return best
}

// scratch is a reusable arena for one solve: the full stack of DP rows
// (base row plus one per layer, backing lazy reconstruction), the reversed
// per-layer cost window, per-layer window geometry, and — for the
// refinement solver — a materialized cost table. Pooling it makes repeated
// solves allocation-free in the DP hot path, which is what the experiment
// sweep (thousands of solves per run) leans on.
type scratch struct {
	buf      []float64   // (n+1)×(C+1) backing store for rows
	rows     [][]float64 // rows[0] = base row; rows[p+1] = dp after layer p
	costsRev []float64
	metas    []layerMeta
	// refine-only buffers, grown on demand (refine.go). None of them is
	// cleared on reuse: every cell the refinement reads is written first,
	// by construction.
	costBuf    []float64
	cminRevBuf []float64
	lvlBuf     []float64
	upBuf      []float64
	cminBuf    []float64
	sweepBuf   []float64
	chBuf      []int32
	dqBuf      []int32
	runBuf     []rspan
}

// maxPooledCells caps the arena size kept alive by the pool: large-C solves
// (satellite audit: C=65536 and beyond) allocate their rows fresh and
// release them to the GC instead of pinning tens of megabytes per P.
const maxPooledCells = 1 << 22

var scratchPool = sync.Pool{New: func() interface{} { return new(scratch) }}

func getScratch(n, C int) *scratch {
	s := scratchPool.Get().(*scratch)
	need := (n + 1) * (C + 1)
	if cap(s.buf) < need {
		s.buf = make([]float64, need)
	} else {
		s.buf = s.buf[:need]
	}
	if cap(s.rows) < n+1 {
		s.rows = make([][]float64, n+1)
	} else {
		s.rows = s.rows[:n+1]
	}
	for i := 0; i <= n; i++ {
		s.rows[i] = s.buf[i*(C+1) : (i+1)*(C+1)]
	}
	s.costsRev = growFloats(s.costsRev, C+1)
	if cap(s.metas) < n {
		s.metas = make([]layerMeta, n)
	} else {
		s.metas = s.metas[:n]
	}
	return s
}

func putScratch(s *scratch) {
	if len(s.buf) > maxPooledCells || len(s.costBuf) > maxPooledCells ||
		len(s.cminBuf) > maxPooledCells || len(s.lvlBuf) > maxPooledCells {
		return
	}
	scratchPool.Put(s)
}

func growFloats(b []float64, n int) []float64 {
	if cap(b) < n {
		return make([]float64, n)
	}
	return b[:n]
}

// reconstructAlloc rebuilds the optimal allocation from the retained DP
// rows. At each on-path cell it replays the layer's candidate scan — j
// ascending, strict improvement, skipping sentinel cells — over the same
// candidate values the layer kernels saw, so the chosen predecessor (and
// with it the whole allocation, ties included) is exactly the one the
// scatter reference records in its choice table. Costs are re-read
// through costWindow, which calls a custom Cost again: that is why
// Problem.Cost must be deterministic.
func reconstructAlloc(pr *Problem, s *scratch, C int, minimax bool) (Allocation, error) {
	n := len(s.metas)
	alloc := make(Allocation, n)
	k := C
	for p := n - 1; p >= 0; p-- {
		m := s.metas[p]
		prev := s.rows[p]
		j0, j1 := m.prevLo, m.prevHi
		if v := k - m.hi; v > j0 {
			j0 = v
		}
		if v := k - m.lo; v < j1 {
			j1 = v
		}
		if j1 < j0 {
			return nil, errNoFeasible()
		}
		// Candidate j pairs with cost(p, k−j), which is costs[j1−j].
		costs := pr.costWindow(p, k-j1, k-j0, s.costsRev)
		best := inf
		bestJ := -1
		for j := j0; j <= j1; j++ {
			pv := prev[j]
			if pv == inf {
				continue
			}
			c := costs[j1-j]
			var cand float64
			if minimax {
				cand = math.Max(pv, c)
			} else {
				cand = pv + c
			}
			if cand < best {
				best = cand
				bestJ = j
			}
		}
		if bestJ < 0 {
			return nil, errNoFeasible()
		}
		alloc[p] = k - bestJ
		k = bestJ
	}
	if k != 0 {
		return nil, errLeftover(k)
	}
	return alloc, nil
}

// solve is the shared core of Optimize and OptimizeContext. A nil ctx
// (the Optimize path) skips cancellation checks entirely; otherwise ctx
// is polled between DP layers, the natural preemption point: each layer
// is a bounded burst, and aborting between layers leaves no partial
// state beyond the pooled scratch, which is returned intact.
//
// Both rungs run on the problem's feasible box (feasibleBox, DESIGN.md
// §13.2): per-program lower bounds are shifted out, so a bounded problem
// costs O(P·C′²) with C′ = C − ΣMinAlloc, and its allocation gets the
// bounds added back. The solver ladder (DESIGN.md §13) has two rungs:
// refine, whole-solve coarse-to-fine bound pruning (refine.go), gated by
// an exactness certificate and falling through on failure; then exact,
// the gather kernel above, one serial scan per layer. exact skips the
// refine rung; only the differential tests set it.
func solve(ctx context.Context, pr *Problem, exact bool) (Solution, error) {
	if err := pr.validate(); err != nil {
		return Solution{}, err
	}
	box, shift := pr.feasibleBox()
	n, C := len(box.Curves), box.Units
	minimax := box.Combine == Minimax

	// Trace only the cancellable (ctx != nil) path: the Optimize calls in
	// the sweep's inner loop pass nil and stay instrumentation-free —
	// their timing is cmd/obsgate's ObsOverhead subject — while the
	// serving solves record one span each.
	var path solvePath
	if ctx != nil {
		var ps *obs.Span
		ctx, ps = obs.Start(ctx, spanSolve, "dp")
		defer func() {
			ps.Arg("programs", int64(n)).Arg("units", int64(pr.Units)).
				Arg("refine", boolArg(path.refine)).End()
		}()
	}

	s := getScratch(n, C)
	defer putScratch(s)
	base := s.rows[0]
	for k := range base {
		base[k] = inf
	}
	// The empty-set objective: 0 for Sum, -Inf for Minimax (the identity
	// of max), so the first program's cost passes through unchanged even
	// if negative.
	if minimax {
		base[0] = math.Inf(-1)
	} else {
		base[0] = 0
	}

	// Rung 1: whole-solve coarse-to-fine refinement.
	if !exact {
		ok, err := refineSolve(ctx, box, s, &path)
		if err != nil {
			return Solution{}, err
		}
		if ok {
			return finishSolve(pr, box, shift, s, &path)
		}
	}

	// Rung 2: the exact kernel, layer by layer.
	spec := layerSpec{minimax: minimax}
	prevLo, prevHi := 0, 0
	costBound := 0.0
	for p := 0; p < n; p++ {
		if ctx != nil {
			select {
			case <-ctx.Done():
				return Solution{}, ctx.Err()
			default:
			}
		}
		lo, hi := box.bounds(p)
		costsRev := s.costsRev[:hi-lo+1]
		layerMax := 0.0
		for u := lo; u <= hi; u++ {
			c := box.cost(p, u)
			costsRev[hi-lo-(u-lo)] = c
			if a := math.Abs(c); !(a <= layerMax) {
				// NaN falls through to +Inf here, forcing checked mode.
				if a >= 0 {
					layerMax = a
				} else {
					layerMax = math.Inf(1)
				}
			}
		}
		if minimax {
			costBound = math.Max(costBound, layerMax)
		} else {
			costBound += layerMax
		}
		spec.dp, spec.next = s.rows[p], s.rows[p+1]
		spec.costsRev = costsRev
		spec.lo, spec.hi = lo, hi
		spec.prevLo, spec.prevHi = prevLo, prevHi
		spec.checked = spec.checked || !(costBound < costSafeLimit)
		// The last layer computes only next[C]: finishSolve reads nothing
		// else of the final row, and reconstructAlloc reads rows 0..n−1.
		tLo := 0
		if p == n-1 {
			tLo = C
		}
		runLayer(&spec, tLo)
		path.exactLayers++
		s.metas[p] = layerMeta{lo: lo, hi: hi, prevLo: prevLo, prevHi: prevHi}
		path.cells += int64(C + 1 - tLo)
		prevLo += lo
		if prevHi += hi; prevHi > C {
			prevHi = C
		}
	}

	return finishSolve(pr, box, shift, s, &path)
}

// solvePath accumulates which rungs of the ladder actually ran during one
// solve, for the Solution.SolverPath report and the obs counters.
type solvePath struct {
	refine         bool
	refineFallback bool
	exactLayers    int
	cells          int64 // DP cells computed
	bandCells      int64 // cells retained by refinement bands
}

// String renders the rung combination: "refine", "exact", or
// "refine-fallback+exact" when refinement was attempted and declined.
func (p *solvePath) String() string {
	switch {
	case p.refine:
		return "refine"
	case p.refineFallback:
		return "refine-fallback+exact"
	}
	return "exact"
}

// finishSolve records the solve's observability batch, reconstructs the
// box allocation from the retained rows, adds the lower bounds shift back,
// and assembles the Solution from the original problem, so its miss
// ratios come from the unshifted curves.
func finishSolve(pr, box *Problem, shift []int, s *scratch, path *solvePath) (Solution, error) {
	n, C := len(s.metas), box.Units
	// One batched observation per solve: with the registry disabled this
	// is a single nil check, and even enabled it is a handful of atomic
	// adds for the whole solve — the sweep's hot path stays untouched.
	if reg := obs.Enabled(); reg != nil {
		reg.Counter(mSolves).Inc()
		reg.Counter(mDPCells).Add(path.cells)
		if path.refine {
			reg.Counter(mPathRefineSolves).Inc()
			reg.Counter(mRefineBandCells).Add(path.bandCells)
		}
		if path.refineFallback {
			reg.Counter(mRefineFallbacks).Inc()
		}
		if path.exactLayers > 0 {
			reg.Counter(mPathExactLayers).Add(int64(path.exactLayers))
		}
	}

	final := s.rows[n]
	if final[C] == inf {
		return Solution{}, errNoFeasible()
	}
	alloc, err := reconstructAlloc(box, s, C, box.Combine == Minimax)
	if err != nil {
		return Solution{}, err
	}
	for p, l := range shift {
		alloc[p] += l
	}
	sol := pr.solution(alloc, final[C])
	sol.SolverPath = path.String()
	return sol, nil
}

func boolArg(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
