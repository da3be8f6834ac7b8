// Package partition implements the paper's core contribution (§V-B, §VI):
// optimal cache partitioning by dynamic programming over arbitrary
// miss-ratio curves and objective functions, baseline-constrained (fair)
// optimization, and the classic Stone–Thiebaut–Turek–Wolf (STTW) greedy
// partitioner used as the comparison baseline.
//
// The optimizer assigns whole cache units to programs so that the combined
// objective is minimized and the units sum exactly to the cache size
// (Eq. 15). The dynamic program adds one program at a time (Eq. 16): the
// optimal split of k units among the first i programs extends the optimal
// splits of k−cᵢ units among the first i−1. Time O(P·C²), space O(P·C).
package partition

import (
	"context"
	"fmt"
	"math"
	"slices"

	"partitionshare/internal/mrc"
)

// Allocation assigns cache units to each program.
type Allocation []int

// Total returns the number of units allocated.
func (a Allocation) Total() int {
	t := 0
	for _, u := range a {
		t += u
	}
	return t
}

// Combine selects how per-program costs aggregate into the objective.
type Combine int

const (
	// Sum minimizes the total cost — with the default miss-count cost,
	// the group miss ratio (the paper's primary objective).
	Sum Combine = iota
	// Minimax minimizes the worst per-program cost — a pure fairness
	// objective, demonstrating the DP's objective generality (§V-B).
	Minimax
)

// Problem describes one partitioning instance.
type Problem struct {
	// Curves holds one miss-ratio curve per program.
	Curves []mrc.Curve
	// Units is the cache size C in partition units.
	Units int
	// MinAlloc and MaxAlloc bound each program's allocation (inclusive).
	// nil means 0 and C respectively. Baseline-constrained optimization
	// (§VI) sets MinAlloc. Lower bounds cost nothing: the optimizer solves
	// on the feasible box of C − ΣMinAlloc units and adds them back, so a
	// tightly bounded problem is cheaper than an unbounded one and takes
	// the same solver ladder.
	MinAlloc, MaxAlloc []int
	// Cost gives program p's cost at u units. nil means miss count,
	// Curves[p].MissCount(u). Any function is legal: the optimizer makes
	// no convexity or monotonicity assumption. The function must be
	// deterministic — the optimizer may re-evaluate it (the lazy
	// allocation reconstruction rescans candidate windows after the value
	// pass) and assumes repeated calls return identical float64 values.
	Cost func(p, u int) float64
	// CostTable, when non-nil, holds precomputed costs: CostTable[p][u] is
	// program p's cost at u units, for u in [0, Units]. It takes precedence
	// over Cost and the curve lookup, and exists so batch harnesses (the
	// experiment sweep) can compute each program's miss-count column once
	// and share it across thousands of solves. Rows may be shared between
	// Problems; the optimizer never writes them.
	CostTable [][]float64
	// Rows, when non-nil, holds prepared cost rows: Rows[p] is program p's
	// PrepareRow result over exactly Units+1 costs. It takes precedence
	// over CostTable, Cost and the curves, and exists so a caller that
	// solves the same rows many times (the experiment sweep, the service's
	// tenants) certifies each row and builds its refinement minima once
	// instead of on every solve. Rows may be shared between Problems.
	Rows []*CostRow
	// Combine selects the aggregation (default Sum).
	Combine Combine
}

// MaxUnits bounds Problem.Units. It exists to keep every index product in
// the DP — (P+1)·(C+1) scratch cells, C² candidate scans — comfortably
// inside int64 even on 32-bit int platforms, and to fail fast on garbage
// sizes before allocating gigabytes of scratch.
const MaxUnits = 1 << 24

// maxSolveCells bounds the DP table size (programs+1)·(units+1) a single
// solve may allocate (1 GiB of float64s). C=65536 with hundreds of
// programs stays well inside; genuinely larger instances need a sharded
// solver, not a bigger buffer.
const maxSolveCells = 1 << 27

func (pr *Problem) cost(p, u int) float64 {
	if pr.Rows != nil {
		return pr.Rows[p].costs[u]
	}
	if pr.CostTable != nil {
		return pr.CostTable[p][u]
	}
	if pr.Cost != nil {
		return pr.Cost(p, u)
	}
	return pr.Curves[p].MissCount(u)
}

// costWindow returns w with w[i] = cost(p, lo+i) for i in [0, hi−lo]:
// a slice of p's prepared or CostTable row, or the custom Cost's values
// or the curve's miss counts written into buf, which must hold hi−lo+1
// entries.
func (pr *Problem) costWindow(p, lo, hi int, buf []float64) []float64 {
	if pr.Rows != nil {
		return pr.Rows[p].costs[lo : hi+1]
	}
	if pr.CostTable != nil {
		return pr.CostTable[p][lo : hi+1]
	}
	w := buf[:hi-lo+1]
	if pr.Cost != nil {
		for i := range w {
			w[i] = pr.Cost(p, lo+i)
		}
		return w
	}
	pr.Curves[p].MissCounts(lo, w)
	return w
}

// costsReversed writes cost(p, hi−i) into rev[i] for i in [0, hi−lo]:
// a prepared or CostTable row copied in reverse, or the custom Cost's
// values or the curve's miss counts written into rev, in ascending u as
// costWindow computes them, and reversed in place.
func (pr *Problem) costsReversed(p, lo, hi int, rev []float64) {
	if pr.Rows == nil && pr.CostTable == nil {
		slices.Reverse(pr.costWindow(p, lo, hi, rev))
		return
	}
	w := pr.costWindow(p, lo, hi, nil)
	for i, c := range w {
		rev[len(w)-1-i] = c
	}
}

func (pr *Problem) bounds(p int) (lo, hi int) {
	lo, hi = 0, pr.Units
	if pr.MinAlloc != nil {
		lo = pr.MinAlloc[p]
	}
	if pr.MaxAlloc != nil && pr.MaxAlloc[p] < hi {
		hi = pr.MaxAlloc[p]
	}
	return lo, hi
}

// feasibleBox restates pr in shifted coordinates u′ = u − lo_p over
// C′ = C − Σlo units (DESIGN.md §13.2): no lower bounds, upper bounds
// hi′ = min(hi − lo, C′), and at every u′ the cost pr has at u′ + lo_p —
// prepared and CostTable rows and curve columns resliced (a prepared row
// into a CostTable row, a curve by at most its length−1, keeping
// MissRatio's clamp), a custom Cost wrapped. It returns
// pr itself and nil when no program has a lower bound; otherwise the box
// and the lower bounds to add back to its allocation. pr must be valid.
func (pr *Problem) feasibleBox() (*Problem, []int) {
	sum := 0
	for _, l := range pr.MinAlloc {
		sum += l
	}
	if sum == 0 {
		return pr, nil
	}
	n, lo, units := len(pr.Curves), pr.MinAlloc, pr.Units-sum
	box := &Problem{
		Curves:  make([]mrc.Curve, n),
		Units:   units,
		Combine: pr.Combine,
	}
	for p, c := range pr.Curves {
		if len(c.MR) > 0 {
			c.MR = c.MR[min(lo[p], len(c.MR)-1):]
		}
		box.Curves[p] = c
	}
	// Without MaxAlloc every hi − lo is at least C′: the box needs none.
	if pr.MaxAlloc != nil {
		box.MaxAlloc = make([]int, n)
		for p := range box.MaxAlloc {
			_, hi := pr.bounds(p)
			box.MaxAlloc[p] = min(hi-lo[p], units)
		}
	}
	switch {
	case pr.Rows != nil:
		box.CostTable = make([][]float64, n)
		for p, row := range pr.Rows {
			box.CostTable[p] = row.costs[lo[p]:]
		}
	case pr.CostTable != nil:
		box.CostTable = make([][]float64, n)
		for p, row := range pr.CostTable {
			box.CostTable[p] = row[lo[p]:]
		}
	case pr.Cost != nil:
		cost := pr.Cost
		box.Cost = func(p, u int) float64 { return cost(p, u+lo[p]) }
	}
	return box, lo
}

func (pr *Problem) validate() error {
	n := len(pr.Curves)
	if n == 0 {
		return fmt.Errorf("partition: no programs")
	}
	if pr.Units <= 0 {
		return fmt.Errorf("partition: non-positive cache size %d", pr.Units)
	}
	if pr.Units > MaxUnits {
		return fmt.Errorf("partition: cache size %d exceeds MaxUnits %d", pr.Units, MaxUnits)
	}
	if cells := (int64(n) + 1) * (int64(pr.Units) + 1); cells > maxSolveCells {
		return fmt.Errorf("partition: DP table needs %d cells for %d programs × %d units (limit %d)", cells, n, pr.Units, maxSolveCells)
	}
	if pr.MinAlloc != nil && len(pr.MinAlloc) != n {
		return fmt.Errorf("partition: MinAlloc has %d entries for %d programs", len(pr.MinAlloc), n)
	}
	if pr.MaxAlloc != nil && len(pr.MaxAlloc) != n {
		return fmt.Errorf("partition: MaxAlloc has %d entries for %d programs", len(pr.MaxAlloc), n)
	}
	if pr.CostTable != nil {
		if len(pr.CostTable) != n {
			return fmt.Errorf("partition: CostTable has %d rows for %d programs", len(pr.CostTable), n)
		}
		for p, row := range pr.CostTable {
			if len(row) < pr.Units+1 {
				return fmt.Errorf("partition: CostTable row %d has %d entries, need %d", p, len(row), pr.Units+1)
			}
		}
	}
	if pr.Rows != nil {
		if len(pr.Rows) != n {
			return fmt.Errorf("partition: Rows has %d rows for %d programs", len(pr.Rows), n)
		}
		for p, row := range pr.Rows {
			if row == nil || len(row.costs) != pr.Units+1 {
				return fmt.Errorf("partition: Rows[%d] is not prepared for %d units", p, pr.Units)
			}
		}
	}
	minSum := 0
	for p := 0; p < n; p++ {
		lo, hi := pr.bounds(p)
		if lo < 0 || hi < lo {
			return fmt.Errorf("partition: program %d has invalid bounds [%d,%d]", p, lo, hi)
		}
		minSum += lo
	}
	if minSum > pr.Units {
		return fmt.Errorf("partition: lower bounds sum to %d > cache size %d", minSum, pr.Units)
	}
	maxSum := 0
	for p := 0; p < n; p++ {
		_, hi := pr.bounds(p)
		maxSum += hi
	}
	if maxSum < pr.Units {
		return fmt.Errorf("partition: upper bounds sum to %d < cache size %d", maxSum, pr.Units)
	}
	return nil
}

// Solution is the result of an optimization.
type Solution struct {
	Alloc Allocation
	// Objective is the combined objective value (total miss count for
	// the default Sum objective).
	Objective float64
	// GroupMissRatio is total misses over total accesses under Alloc,
	// independent of the objective used.
	GroupMissRatio float64
	// MissRatios holds each program's miss ratio under Alloc.
	MissRatios []float64
	// SolverPath records which rungs of the solver ladder actually ran
	// ("refine", "exact", or "refine-fallback+exact"). Purely
	// informational: every path produces bit-identical results. Only
	// Optimize and OptimizeContext populate it.
	SolverPath string
}

func (pr *Problem) solution(alloc Allocation, obj float64) Solution {
	s := Solution{
		Alloc:          alloc,
		Objective:      obj,
		GroupMissRatio: mrc.GroupMissRatio(pr.Curves, alloc),
		MissRatios:     make([]float64, len(pr.Curves)),
	}
	for p, c := range pr.Curves {
		s.MissRatios[p] = c.MissRatio(alloc[p])
	}
	return s
}

// Optimize finds the allocation minimizing the combined objective subject
// to the allocation summing exactly to Units and respecting the per-program
// bounds. It examines the entire solution space by dynamic programming —
// no convexity assumption — in O(P·C²) worst-case time and O(P·C) space.
// The DP runs on a two-rung solver ladder (DESIGN.md §13): an exactness
// certificate routes eligible instances through coarse-to-fine refinement
// (refine.go) — near-linear in C in practice — while anything uncertified
// drops to the exact gather kernel (kernel.go). Both rungs, on every
// input, produce output — objective, allocation, even tie-breaking —
// bit-identical to the reference implementation (see ReferenceOptimize);
// Solution.SolverPath reports what ran. A problem with MinAlloc is solved
// on its feasible box, the C − ΣMinAlloc units left once every lower
// bound is met (O(P·C′²)), with the same bit-exactness and tie-breaking.
func Optimize(pr Problem) (Solution, error) {
	return solve(nil, &pr, false)
}

// OptimizeContext is Optimize made cancellable and traced: it polls ctx
// between DP rounds, returns ctx.Err() once ctx is done, and records a
// partition.solve span. The optimum is Optimize's, bit for bit. It is the
// serving solve (internal/service, cmd/optpart).
func OptimizeContext(ctx context.Context, pr Problem) (Solution, error) {
	return solve(ctx, &pr, false)
}

// OptimizeParallel is OptimizeContext; workers is ignored.
//
// Deprecated: the DP runs serially. Use OptimizeContext.
func OptimizeParallel(ctx context.Context, pr Problem, workers int) (Solution, error) {
	return OptimizeContext(ctx, pr)
}

func errNoFeasible() error {
	return fmt.Errorf("partition: no feasible allocation (internal)")
}

func errLeftover(k int) error {
	return fmt.Errorf("partition: reconstruction leftover %d units (internal)", k)
}

// Evaluate builds a Solution for a fixed allocation without optimizing,
// using the problem's cost and combine rules. The allocation must respect
// the problem's size.
func Evaluate(pr Problem, alloc Allocation) (Solution, error) {
	if len(alloc) != len(pr.Curves) {
		return Solution{}, fmt.Errorf("partition: allocation for %d programs, want %d", len(alloc), len(pr.Curves))
	}
	if err := pr.validate(); err != nil {
		return Solution{}, err
	}
	// Start from the combine identity — 0 for Sum, -Inf for Minimax — as
	// Optimize does; starting Minimax at 0 would silently clamp
	// all-negative custom costs.
	var obj float64
	if pr.Combine == Minimax {
		obj = math.Inf(-1)
	}
	for p := range pr.Curves {
		c := pr.cost(p, alloc[p])
		if pr.Combine == Minimax {
			obj = math.Max(obj, c)
		} else {
			obj += c
		}
	}
	return pr.solution(alloc, obj), nil
}
