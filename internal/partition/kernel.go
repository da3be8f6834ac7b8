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
	spanSolve   = "partition.solve"
	spanDPLayer = "partition.dp_layer"

	mSolves           = "partition.solves"
	mDPCells          = "partition.dp_cells"
	mPathRefineSolves = "partition.path_refine_solves"
	mRefineBandCells  = "partition.refine_band_cells"
	mRefineFallbacks  = "partition.refine_fallbacks"
	mPathExactLayers  = "partition.path_exact_layers"
	mPoolWorkerLayers = "partition.pool_worker_layers"
	mPoolWorkerCells  = "partition.pool_worker_cells"
)

// This file holds the DP core shared by Optimize, OptimizeParallel, and
// (through Optimize) OptimizeWithBaseline and the other constrained
// optimizers. The kernel computes one layer of the Eq. 16 recurrence in
// gather form — next[t] = min over u of combine(dp[t−u], cost(u)) — which
// keeps the running minimum in a register instead of read-modify-writing
// next[t] per candidate as the scatter form does.
//
// Three observations make the layer loop tight without changing a single
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

// layerSpec describes one DP layer for the kernels and the worker pool.
type layerSpec struct {
	dp, next []float64
	costsRev []float64 // costsRev[i] = cost(hi − i)
	lo, hi   int
	// prevLo, prevHi delimit the previous layer's feasible interval.
	prevLo, prevHi int
	minimax        bool
	checked        bool
	blocked        bool
}

// layerMeta records, per solved layer, the geometry reconstructAlloc needs
// to replay the layer's candidate windows.
type layerMeta struct {
	lo, hi         int
	prevLo, prevHi int
}

// runLayerRange fills next[tLo..tHi] with the layer's DP values.
func runLayerRange(sp *layerSpec, tLo, tHi int) {
	if sp.blocked && !sp.checked && !sp.minimax {
		runLayerRangeBlockedSum(sp, tLo, tHi)
		return
	}
	newLo := sp.prevLo + sp.lo
	newHi := sp.prevHi + sp.hi
	dp, next := sp.dp, sp.next
	for t := tLo; t <= tHi; t++ {
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
			next[t] = cellSumVal(dp, sp.costsRev, sp.hi-t, j0, j1)
		}
	}
}

// Blocked tile sizes for the large-window Sum kernel: one j-tile of dp plus
// the matching slice of the reversed cost row stay L1-resident while the
// t-tile reuses them, instead of streaming the full O(C) window through the
// cache once per cell.
const (
	blockedTileT = 256
	blockedTileJ = 3072
	// blockedMinWindow gates the tiled layout to layers whose candidate
	// windows are large enough to thrash L1; below it the flat scan's
	// simplicity wins.
	blockedMinWindow = 2 * blockedTileJ
)

// runLayerRangeBlockedSum is the cache-blocked form of the Sum layer loop.
// For each (t, j) tile it merges tile minima into next[t] with the same
// strict compare, visiting j strictly ascending across tiles — the running
// minimum evolves through the identical sequence of float compares as the
// flat scan, so every value bit matches.
func runLayerRangeBlockedSum(sp *layerSpec, tLo, tHi int) {
	newLo := sp.prevLo + sp.lo
	newHi := sp.prevHi + sp.hi
	dp, next := sp.dp, sp.next
	for t := tLo; t <= tHi; t++ {
		next[t] = inf
	}
	a, b := tLo, tHi
	if a < newLo {
		a = newLo
	}
	if b > newHi {
		b = newHi
	}
	for tb := a; tb <= b; tb += blockedTileT {
		te := tb + blockedTileT - 1
		if te > b {
			te = b
		}
		jMin := sp.prevLo
		if v := tb - sp.hi; v > jMin {
			jMin = v
		}
		jMax := sp.prevHi
		if v := te - sp.lo; v < jMax {
			jMax = v
		}
		for jb := jMin; jb <= jMax; jb += blockedTileJ {
			je := jb + blockedTileJ - 1
			if je > jMax {
				je = jMax
			}
			for t := tb; t <= te; t++ {
				j0, j1 := jb, je
				if v := t - sp.hi; v > j0 {
					j0 = v
				}
				if v := t - sp.lo; v < j1 {
					j1 = v
				}
				if j0 > j1 {
					continue
				}
				off := sp.hi - t
				dpw := dp[j0 : j1+1]
				cw := sp.costsRev[off+j0 : off+j1+1 : off+j1+1]
				cw = cw[:len(dpw)]
				best := next[t]
				for i, v := range dpw {
					if cand := v + cw[i]; cand < best {
						best = cand
					}
				}
				next[t] = best
			}
		}
	}
}

// cellSumVal scans candidates for one cell with no feasibility check: every
// dp[j] in [j0, j1] is finite by the interval invariant, and cost magnitudes
// are bounded, so the first candidate always improves on inf.
func cellSumVal(dp, costsRev []float64, off, j0, j1 int) float64 {
	dpw := dp[j0 : j1+1]
	cw := costsRev[off+j0 : off+j1+1 : off+j1+1]
	cw = cw[:len(dpw)]
	// Two independent accumulators break the serial min dependency chain;
	// float64 min is exact (no rounding), so any accumulation order gives
	// the bit-identical value.
	best, best2 := inf, inf
	i := 0
	for ; i+1 < len(dpw); i += 2 {
		if cand := dpw[i] + cw[i]; cand < best {
			best = cand
		}
		if cand := dpw[i+1] + cw[i+1]; cand < best2 {
			best2 = cand
		}
	}
	if i < len(dpw) {
		if cand := dpw[i] + cw[i]; cand < best {
			best = cand
		}
	}
	if best2 < best {
		best = best2
	}
	return best
}

// cellMinimaxVal is cellSumVal with the max combine. math.Max is used (not
// a hand-rolled compare) so NaN and signed-zero handling match the original.
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
	// refine-only buffers, grown on demand (refine.go). The level tables
	// ping-pong between lvlBuf0/lvlBuf1 because one level's bounds are
	// still being read (banding) while the next level's are written. None
	// of them is cleared on reuse: every cell the refinement reads is
	// written first, by construction.
	costBuf  []float64
	lvlBuf0  []float64
	lvlBuf1  []float64
	upBuf    []float64
	cminBuf  []float64
	sweepBuf []float64
	chBuf    []int32
	dqBuf    []int32
	maskBuf  []bool
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
		len(s.cminBuf) > maxPooledCells || len(s.lvlBuf0) > maxPooledCells {
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
// scatter reference records in its choice table. Costs are re-evaluated
// through pr.cost, which is why Problem.Cost must be deterministic.
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
		best := inf
		bestJ := -1
		for j := j0; j <= j1; j++ {
			pv := prev[j]
			if pv == inf {
				continue
			}
			c := pr.cost(p, k-j)
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

// solve is the shared core of Optimize and OptimizeParallel. A nil ctx
// (the serial Optimize path) skips cancellation checks entirely;
// otherwise ctx is polled between DP layers, the natural preemption
// point: each layer is a bounded burst, and aborting between layers
// leaves no partial state beyond the pooled scratch, which is returned
// intact.
//
// Both rungs run on the problem's feasible box (feasibleBox, DESIGN.md
// §13.2): per-program lower bounds are shifted out, so a bounded problem
// costs O(P·C′²) with C′ = C − ΣMinAlloc, and its allocation gets the
// bounds added back. The solver ladder (DESIGN.md §13) has two rungs:
// refine, whole-solve coarse-to-fine bound pruning (refine.go), gated by
// an exactness certificate and falling through on failure; then exact,
// the gather kernel above, blocked at large windows.
func solve(ctx context.Context, pr *Problem, workers int) (Solution, error) {
	if err := pr.validate(); err != nil {
		return Solution{}, err
	}
	box, shift := pr.feasibleBox()
	n, C := len(box.Curves), box.Units
	minimax := box.Combine == Minimax

	// Trace only the cancellable (ctx != nil) path: the serial Optimize
	// calls in the sweep's inner loop pass nil and stay instrumentation-
	// free — their timing is cmd/obsgate's ObsOverhead subject — while the
	// coarse parallel solves record a span with per-layer children.
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
	if box.Solver == SolverAuto {
		ok, err := refineSolve(ctx, box, s, &path)
		if err != nil {
			return Solution{}, err
		}
		if ok {
			return finishSolve(pr, box, shift, s, &path)
		}
	}

	// Rung 2: the exact kernel, layer by layer.
	var pool *dpPool
	if workers > 1 {
		pool = newDPPool(workers, C)
		defer pool.close()
	}

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
		spec.blocked = !spec.minimax && !spec.checked &&
			spec.prevHi-spec.prevLo+1 >= blockedMinWindow
		if pool != nil {
			_, ls := obs.Start(ctx, spanDPLayer, "dp")
			pool.runLayer(&spec)
			ls.Arg("layer", int64(p)).End()
		} else {
			runLayerRange(&spec, 0, C)
		}
		path.exactLayers++
		s.metas[p] = layerMeta{lo: lo, hi: hi, prevLo: prevLo, prevHi: prevHi}
		path.cells += int64(C + 1)
		prevLo += lo
		if prevHi += hi; prevHi > C {
			prevHi = C
		}
	}

	return finishSolve(pr, box, shift, s, &path)
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
