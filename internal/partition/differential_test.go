package partition

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"testing"

	"partitionshare/internal/mrc"
)

// randProblem builds a randomized small instance exercising every solver
// feature: non-convex curves, both combine rules, custom (possibly
// negative) costs, and random feasible MinAlloc/MaxAlloc bounds.
func randDiffProblem(rng *rand.Rand) Problem {
	units := rng.IntN(14) + 2
	n := rng.IntN(4) + 1
	curves := make([]mrc.Curve, n)
	for p := range curves {
		curves[p] = randCurve(rng, "p", units)
	}
	pr := Problem{Curves: curves, Units: units}
	if rng.Float64() < 0.5 {
		pr.Combine = Minimax
	}
	if rng.Float64() < 0.4 {
		// Custom non-convex cost with negative values and plateaus.
		seed := rng.Int64()
		pr.Cost = func(p, u int) float64 {
			x := uint64(seed) ^ uint64(p*2654435761) ^ uint64(u*40503)
			x ^= x >> 13
			x *= 0x9e3779b97f4a7c15
			x ^= x >> 29
			return float64(int64(x%2001)-1000) / 97
		}
	}
	if rng.Float64() < 0.4 {
		lo := make([]int, n)
		left := units
		for p := range lo {
			lo[p] = rng.IntN(left/n + 1)
			left -= lo[p]
		}
		pr.MinAlloc = lo
	}
	if rng.Float64() < 0.4 {
		hi := make([]int, n)
		need := units
		for p := range hi {
			lo := 0
			if pr.MinAlloc != nil {
				lo = pr.MinAlloc[p]
			}
			hi[p] = lo + rng.IntN(units-lo+1)
			need -= hi[p]
		}
		if need > 0 {
			hi[rng.IntN(n)] += need // keep the sum of upper bounds feasible
		}
		pr.MaxAlloc = hi
	}
	return pr
}

// TestOptimizeBitExactWithReference asserts the gather kernel
// reproduces the original scatter implementation exactly: same objective
// bits, same allocation (tie-breaking included), on randomized instances.
func TestOptimizeBitExactWithReference(t *testing.T) {
	for seed := uint64(1); seed <= 400; seed++ {
		rng := rand.New(rand.NewPCG(seed, seed^0xabcdef))
		pr := randDiffProblem(rng)
		want, errW := ReferenceOptimize(pr)
		got, errG := Optimize(pr)
		if (errW == nil) != (errG == nil) {
			t.Fatalf("seed %d: reference err %v, optimize err %v", seed, errW, errG)
		}
		if errW != nil {
			continue
		}
		if got.Objective != want.Objective {
			t.Fatalf("seed %d: objective %v != reference %v", seed, got.Objective, want.Objective)
		}
		if !reflect.DeepEqual(got.Alloc, want.Alloc) {
			t.Fatalf("seed %d: alloc %v != reference %v", seed, got.Alloc, want.Alloc)
		}
	}
}

// TestOptimizeParallelBitExactAllWorkerCounts asserts the cancellable
// OptimizeContext matches Optimize (and hence the reference) bit for bit
// on randomized instances covering non-convex curves, Minimax, and
// bounds, and that the deprecated OptimizeParallel shim does too for
// every worker count 0..8, which it ignores.
func TestOptimizeParallelBitExactAllWorkerCounts(t *testing.T) {
	for seed := uint64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewPCG(seed, seed*97))
		pr := randDiffProblem(rng)
		want, errW := Optimize(pr)
		check := func(label string, got Solution, errG error) {
			t.Helper()
			if (errW == nil) != (errG == nil) {
				t.Fatalf("seed %d %s: err %v vs %v", seed, label, errG, errW)
			}
			if errW == nil && !sameBits(got, want) {
				t.Fatalf("seed %d %s: %v/%v != %v/%v", seed, label, got.Objective, got.Alloc, want.Objective, want.Alloc)
			}
		}
		got, errG := OptimizeContext(context.Background(), pr)
		check("context", got, errG)
		for workers := 0; workers <= 8; workers++ {
			got, errG := OptimizeParallel(context.Background(), pr, workers)
			check(fmt.Sprintf("workers=%d", workers), got, errG)
		}
	}
}

// TestOptimizeMatchesBruteForceRandomized cross-checks the kernel against
// exhaustive enumeration — the ground truth independent of either DP
// implementation.
func TestOptimizeMatchesBruteForceRandomized(t *testing.T) {
	for seed := uint64(1); seed <= 120; seed++ {
		rng := rand.New(rand.NewPCG(seed, seed*13+7))
		pr := randDiffProblem(rng)
		bf, errB := bruteForce(pr)
		dp, errD := Optimize(pr)
		if (errB == nil) != (errD == nil) {
			t.Fatalf("seed %d: brute err %v, dp err %v", seed, errB, errD)
		}
		if errB != nil {
			continue
		}
		if dp.Objective != bf.Objective {
			t.Fatalf("seed %d: dp objective %v != brute force %v", seed, dp.Objective, bf.Objective)
		}
	}
}

// TestCostTableMatchesCostFunc asserts that solving with a precomputed
// CostTable is bit-identical to solving with the equivalent cost source,
// for both the default miss-count cost and a custom Cost function.
func TestCostTableMatchesCostFunc(t *testing.T) {
	for seed := uint64(1); seed <= 80; seed++ {
		rng := rand.New(rand.NewPCG(seed, seed*1009))
		pr := randDiffProblem(rng)
		tab := make([][]float64, len(pr.Curves))
		for p := range tab {
			tab[p] = make([]float64, pr.Units+1)
			for u := 0; u <= pr.Units; u++ {
				tab[p][u] = pr.cost(p, u)
			}
		}
		want, errW := Optimize(pr)
		tpr, rpr := pr, pr
		tpr.CostTable = tab
		rpr.Rows = make([]*CostRow, len(tab))
		for p, row := range tab {
			rpr.Rows[p] = PrepareRow(row)
		}
		for _, q := range []Problem{tpr, rpr} {
			got, errG := Optimize(q)
			if (errW == nil) != (errG == nil) {
				t.Fatalf("seed %d: err %v vs %v", seed, errG, errW)
			}
			if errW != nil {
				continue
			}
			if got.Objective != want.Objective || !reflect.DeepEqual(got.Alloc, want.Alloc) {
				t.Fatalf("seed %d: table solve (%v, %v) != direct (%v, %v)",
					seed, got.Objective, got.Alloc, want.Objective, want.Alloc)
			}
		}
	}
}

// TestPreparedRowsBitExact holds solves over prepared rows to the
// reference at refinement scale, on every solve path: random problems at
// C = 512, 1024 and 2048, the bounded fuzz seed (whose feasible box turns
// the rows into a cost table), the fallback seed (certified rows, work
// budget exceeded) and a row with a −0 cost (certificate refused).
func TestPreparedRowsBitExact(t *testing.T) {
	prepared := func(pr Problem) Problem {
		rows := make([]*CostRow, len(pr.Curves))
		for p := range rows {
			costs := make([]float64, pr.Units+1)
			for u := range costs {
				costs[u] = pr.cost(p, u)
			}
			rows[p] = PrepareRow(costs)
		}
		pr.Rows, pr.Cost = rows, nil
		return pr
	}
	for _, units := range []int{512, 1024, 2048} {
		for seed := uint64(1); seed <= 3; seed++ {
			checkSolutionBits(t, prepared(randProblem(seed, 3, units)), fmt.Sprintf("units=%d seed=%d", units, seed))
		}
	}
	for label, seed := range map[string][]byte{"bounded": fuzzSeedBounded, "fallback": fuzzSeedFallback} {
		pr, _, _ := fuzzProblem(seed)
		checkSolutionBits(t, prepared(pr), label)
	}
	pr := randProblem(4, 3, 1024)
	pr.Cost = func(p, u int) float64 {
		if p == 1 && u == 700 {
			return math.Copysign(0, -1)
		}
		return pr.Curves[p].MissCount(u)
	}
	pr = prepared(pr)
	checkSolutionBits(t, pr, "negative zero")
	if got, _ := Optimize(pr); got.SolverPath != "refine-fallback+exact" {
		t.Errorf("negative zero: path %q, want refine-fallback+exact", got.SolverPath)
	}
}

// TestCheckedKernelFallback drives the solve into the checked kernels with
// astronomically large and non-finite custom costs and cross-checks against
// the reference implementation, which handles sentinels the same way.
func TestCheckedKernelFallback(t *testing.T) {
	huge := math.MaxFloat64 / 4
	costs := []func(p, u int) float64{
		func(p, u int) float64 { return huge },
		func(p, u int) float64 {
			if u == 0 {
				return math.Inf(1)
			}
			return float64(u)
		},
		func(p, u int) float64 { return -huge + float64(p*1000+u) },
	}
	for ci, cost := range costs {
		for _, combine := range []Combine{Sum, Minimax} {
			curves := []mrc.Curve{
				mkCurve("a", 100, 1.0, 0.5, 0.2, 0.1),
				mkCurve("b", 100, 0.9, 0.6, 0.3, 0.0),
			}
			pr := Problem{Curves: curves, Units: 3, Cost: cost, Combine: combine}
			want, errW := ReferenceOptimize(pr)
			got, errG := Optimize(pr)
			if (errW == nil) != (errG == nil) {
				t.Fatalf("cost %d combine %v: err %v vs %v", ci, combine, errG, errW)
			}
			if errW != nil {
				continue
			}
			if got.Objective != want.Objective || !reflect.DeepEqual(got.Alloc, want.Alloc) {
				t.Fatalf("cost %d combine %v: (%v, %v) != reference (%v, %v)",
					ci, combine, got.Objective, got.Alloc, want.Objective, want.Alloc)
			}
		}
	}
}

// TestEvaluateMinimaxNegativeCosts is the regression test for the Minimax
// accumulator: Evaluate must start from -Inf (the identity of max) so an
// all-negative custom cost is reported as the true worst cost, not clamped
// to zero — matching Optimize and bruteForce.
func TestEvaluateMinimaxNegativeCosts(t *testing.T) {
	curves := []mrc.Curve{
		mkCurve("a", 100, 1.0, 0.5, 0.2),
		mkCurve("b", 100, 0.9, 0.4, 0.1),
	}
	// Speedup-style cost: always negative, improving with allocation.
	cost := func(p, u int) float64 { return -float64(u+1) * float64(p+1) }
	pr := Problem{Curves: curves, Units: 2, Cost: cost, Combine: Minimax}
	sol, err := Evaluate(pr, Allocation{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	want := math.Max(cost(0, 1), cost(1, 1)) // -2: the larger (worse) of the two
	if sol.Objective != want {
		t.Fatalf("Evaluate Minimax objective = %v, want %v", sol.Objective, want)
	}
	// Cross-check consistency with the optimizers on the same problem.
	bf, err := bruteForce(pr)
	if err != nil {
		t.Fatal(err)
	}
	dp, err := Optimize(pr)
	if err != nil {
		t.Fatal(err)
	}
	if dp.Objective != bf.Objective {
		t.Fatalf("Optimize objective %v != bruteForce %v", dp.Objective, bf.Objective)
	}
	ev, err := Evaluate(pr, bf.Alloc)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Objective != bf.Objective {
		t.Fatalf("Evaluate(%v) = %v, want bruteForce objective %v", bf.Alloc, ev.Objective, bf.Objective)
	}
}

// TestOptimizeBaselineSharesCostTable asserts the table-carrying baseline
// entry point equals the classic curves-based one.
func TestOptimizeBaselineSharesCostTable(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewPCG(seed, seed*71))
		units := rng.IntN(12) + 4
		n := rng.IntN(3) + 2
		curves := make([]mrc.Curve, n)
		for p := range curves {
			curves[p] = randCurve(rng, "p", units).MonotoneRepair()
		}
		baseline := EqualAllocation(n, units)
		want, errW := OptimizeWithBaseline(curves, units, baseline)
		tab := make([][]float64, n)
		for p := range tab {
			tab[p] = make([]float64, units+1)
			for u := 0; u <= units; u++ {
				tab[p][u] = curves[p].MissCount(u)
			}
		}
		got, errG := OptimizeBaseline(Problem{Curves: curves, Units: units, CostTable: tab}, baseline)
		if (errW == nil) != (errG == nil) {
			t.Fatalf("seed %d: err %v vs %v", seed, errG, errW)
		}
		if errW != nil {
			continue
		}
		if got.Objective != want.Objective || !reflect.DeepEqual(got.Alloc, want.Alloc) {
			t.Fatalf("seed %d: table baseline (%v, %v) != classic (%v, %v)",
				seed, got.Objective, got.Alloc, want.Objective, want.Alloc)
		}
	}
}
