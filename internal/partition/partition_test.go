package partition

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"partitionshare/internal/mrc"
)

// mkCurve builds a curve from raw miss ratios.
func mkCurve(name string, accesses int64, mr ...float64) mrc.Curve {
	return mrc.Curve{Name: name, MR: mr, Accesses: accesses, AccessRate: 1}
}

// randCurve builds a random non-increasing miss-ratio curve with
// occasional cliffs, over C units.
func randCurve(rng *rand.Rand, name string, units int) mrc.Curve {
	mr := make([]float64, units+1)
	v := rng.Float64()*0.5 + 0.3
	for u := range mr {
		mr[u] = v
		switch {
		case rng.Float64() < 0.1: // cliff
			v *= rng.Float64() * 0.4
		case rng.Float64() < 0.5: // gentle decay
			v *= 0.85 + rng.Float64()*0.15
		}
	}
	return mrc.Curve{Name: name, MR: mr, Accesses: int64(rng.IntN(10000) + 1000), AccessRate: 1}
}

func TestOptimizeTrivialSingleProgram(t *testing.T) {
	c := mkCurve("a", 100, 1.0, 0.5, 0.2)
	sol, err := Optimize(Problem{Curves: []mrc.Curve{c}, Units: 2})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Alloc[0] != 2 {
		t.Errorf("alloc = %v, want [2]", sol.Alloc)
	}
	if sol.Objective != 20 {
		t.Errorf("objective = %v, want 20", sol.Objective)
	}
	if sol.GroupMissRatio != 0.2 {
		t.Errorf("group mr = %v, want 0.2", sol.GroupMissRatio)
	}
}

func TestOptimizeKnownInstance(t *testing.T) {
	// Program a saturates after 1 unit; program b keeps improving.
	a := mkCurve("a", 1000, 1.0, 0.1, 0.1, 0.1, 0.1)
	b := mkCurve("b", 1000, 1.0, 0.8, 0.5, 0.2, 0.0)
	sol, err := Optimize(Problem{Curves: []mrc.Curve{a, b}, Units: 4})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Alloc[0] != 1 || sol.Alloc[1] != 3 {
		t.Errorf("alloc = %v, want [1 3]", sol.Alloc)
	}
	if math.Abs(sol.Objective-(100+200)) > 1e-9 {
		t.Errorf("objective = %v, want 300", sol.Objective)
	}
}

func TestOptimizeMatchesBruteForce(t *testing.T) {
	for seed := uint64(1); seed <= 25; seed++ {
		rng := rand.New(rand.NewPCG(seed, seed*31))
		units := rng.IntN(12) + 4
		n := rng.IntN(3) + 2
		curves := make([]mrc.Curve, n)
		for p := range curves {
			curves[p] = randCurve(rng, "p", units)
		}
		pr := Problem{Curves: curves, Units: units}
		dp, err := Optimize(pr)
		if err != nil {
			t.Fatal(err)
		}
		bf, err := bruteForce(pr)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(dp.Objective-bf.Objective) > 1e-6 {
			t.Errorf("seed %d: DP %v vs brute force %v (alloc %v vs %v)",
				seed, dp.Objective, bf.Objective, dp.Alloc, bf.Alloc)
		}
		if dp.Alloc.Total() != units {
			t.Errorf("seed %d: allocation %v does not sum to %d", seed, dp.Alloc, units)
		}
	}
}

func TestOptimizeMatchesBruteForceWithBounds(t *testing.T) {
	for seed := uint64(1); seed <= 15; seed++ {
		rng := rand.New(rand.NewPCG(seed, seed*77))
		units := rng.IntN(10) + 6
		n := 3
		curves := make([]mrc.Curve, n)
		minA := make([]int, n)
		maxA := make([]int, n)
		for p := range curves {
			curves[p] = randCurve(rng, "p", units)
			minA[p] = rng.IntN(2)
			maxA[p] = minA[p] + rng.IntN(units)
		}
		pr := Problem{Curves: curves, Units: units, MinAlloc: minA, MaxAlloc: maxA}
		dp, errDP := Optimize(pr)
		bf, errBF := bruteForce(pr)
		if (errDP == nil) != (errBF == nil) {
			t.Fatalf("seed %d: feasibility disagreement: DP err %v, BF err %v", seed, errDP, errBF)
		}
		if errDP != nil {
			continue
		}
		if math.Abs(dp.Objective-bf.Objective) > 1e-6 {
			t.Errorf("seed %d: DP %v vs BF %v", seed, dp.Objective, bf.Objective)
		}
		for p := range dp.Alloc {
			if dp.Alloc[p] < minA[p] || dp.Alloc[p] > maxA[p] {
				t.Errorf("seed %d: alloc %v violates bounds [%v, %v]", seed, dp.Alloc, minA, maxA)
			}
		}
	}
}

func TestOptimizeMinimaxMatchesBruteForce(t *testing.T) {
	for seed := uint64(1); seed <= 15; seed++ {
		rng := rand.New(rand.NewPCG(seed, seed*13))
		units := rng.IntN(10) + 4
		curves := []mrc.Curve{randCurve(rng, "a", units), randCurve(rng, "b", units), randCurve(rng, "c", units)}
		pr := Problem{Curves: curves, Units: units, Combine: Minimax}
		dp, err := Optimize(pr)
		if err != nil {
			t.Fatal(err)
		}
		bf, err := bruteForce(pr)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(dp.Objective-bf.Objective) > 1e-6 {
			t.Errorf("seed %d: minimax DP %v vs BF %v", seed, dp.Objective, bf.Objective)
		}
	}
}

func TestOptimizeCustomCost(t *testing.T) {
	// QoS-style cost: program 0's misses are 10x as expensive.
	a := mkCurve("a", 1000, 1.0, 0.5, 0.0)
	b := mkCurve("b", 1000, 1.0, 0.5, 0.0)
	weight := []float64{10, 1}
	pr := Problem{
		Curves: []mrc.Curve{a, b},
		Units:  2,
		Cost:   func(p, u int) float64 { return weight[p] * float64(u) * -1.0 }, // contrived: reward units
	}
	sol, err := Optimize(pr)
	if err != nil {
		t.Fatal(err)
	}
	// Maximizing 10*u0 + u1 under u0+u1=2 gives all units to program 0.
	if sol.Alloc[0] != 2 || sol.Alloc[1] != 0 {
		t.Errorf("alloc = %v, want [2 0]", sol.Alloc)
	}
}

func TestOptimizeInfeasible(t *testing.T) {
	c := mkCurve("a", 10, 1, 0.5, 0.2)
	cases := []Problem{
		{Curves: []mrc.Curve{c, c}, Units: 2, MinAlloc: []int{2, 2}}, // lower bounds exceed C
		{Curves: []mrc.Curve{c, c}, Units: 2, MaxAlloc: []int{0, 1}}, // upper bounds below C
		{Curves: nil, Units: 2},                                                             // no programs
		{Curves: []mrc.Curve{c}, Units: 0},                                                  // no cache
		{Curves: []mrc.Curve{c}, Units: 2, MinAlloc: []int{1, 1}},                           // length mismatch
		{Curves: []mrc.Curve{c}, Units: 2, MaxAlloc: []int{}},                               // length mismatch
		{Curves: []mrc.Curve{c, c}, Units: 2, MinAlloc: []int{2, 1}, MaxAlloc: []int{1, 1}}, // lo > hi
	}
	for i, pr := range cases {
		if _, err := Optimize(pr); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestEqualAllocation(t *testing.T) {
	got := EqualAllocation(4, 1024)
	for _, u := range got {
		if u != 256 {
			t.Fatalf("EqualAllocation(4,1024) = %v", got)
		}
	}
	got = EqualAllocation(3, 10)
	if got[0] != 4 || got[1] != 3 || got[2] != 3 {
		t.Fatalf("EqualAllocation(3,10) = %v, want [4 3 3]", got)
	}
	if got.Total() != 10 {
		t.Fatal("total mismatch")
	}
}

func TestEqualAllocationPanics(t *testing.T) {
	for i, f := range []func(){
		func() { EqualAllocation(0, 4) },
		func() { EqualAllocation(2, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

func TestBaselineMinAlloc(t *testing.T) {
	// Baseline gives 2 units (mr 0.4). Smallest u with mr <= 0.4 is 2.
	c := mkCurve("a", 100, 1.0, 0.7, 0.4, 0.4, 0.1)
	mins := BaselineMinAlloc([]mrc.Curve{c}, Allocation{2}, 0)
	if mins[0] != 2 {
		t.Errorf("min alloc = %v, want [2]", mins)
	}
	// A flat curve can shed units: baseline 3 but mr equal at 0.
	flat := mkCurve("f", 100, 0.5, 0.5, 0.5, 0.5, 0.5)
	mins = BaselineMinAlloc([]mrc.Curve{flat}, Allocation{3}, 0)
	if mins[0] != 0 {
		t.Errorf("flat curve min alloc = %v, want [0]", mins)
	}
	// Tolerance loosens the bound: 0.41 is within 5% of 0.40.
	near := mkCurve("n", 100, 1.0, 0.41, 0.4, 0.4, 0.1)
	mins = BaselineMinAlloc([]mrc.Curve{near}, Allocation{2}, 0.05)
	if mins[0] != 1 {
		t.Errorf("tolerant min alloc = %v, want [1]", mins)
	}
	// The bound never exceeds the baseline itself.
	mins = BaselineMinAlloc([]mrc.Curve{c}, Allocation{1}, 0)
	if mins[0] > 1 {
		t.Errorf("min alloc %v exceeds baseline 1", mins)
	}
}

func TestBaselineMinAllocPanics(t *testing.T) {
	for i, f := range []func(){
		func() { BaselineMinAlloc([]mrc.Curve{mkCurve("a", 1, 1, 0)}, Allocation{0, 1}, 0) },
		func() { BaselineMinAlloc([]mrc.Curve{mkCurve("a", 1, 1, 0)}, Allocation{0}, -0.1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

func TestOptimizeWithBaselineNeverWorsens(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewPCG(seed, seed*7))
		units := 16
		curves := make([]mrc.Curve, 4)
		for p := range curves {
			curves[p] = randCurve(rng, "p", units)
		}
		baseline := EqualAllocation(4, units)
		sol, err := OptimizeWithBaseline(curves, units, baseline)
		if err != nil {
			t.Fatal(err)
		}
		for p := range curves {
			base := curves[p].MissRatio(baseline[p]) * (1 + DefaultBaselineTolerance)
			if sol.MissRatios[p] > base+1e-12 {
				t.Errorf("seed %d: program %d worsened: %v > baseline %v", seed, p, sol.MissRatios[p], base)
			}
		}
		// And it is at least as good as the baseline overall.
		baseGroup := mrc.GroupMissRatio(curves, baseline)
		if sol.GroupMissRatio > baseGroup+1e-12 {
			t.Errorf("seed %d: baseline optimization worsened the group: %v > %v", seed, sol.GroupMissRatio, baseGroup)
		}
	}
}

func TestSTTWOptimalOnConvexCurves(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewPCG(seed, seed*3))
		units := rng.IntN(12) + 4
		curves := make([]mrc.Curve, 3)
		for p := range curves {
			curves[p] = randCurve(rng, "p", units).ConvexMinorant()
		}
		sttw := STTW(curves, units)
		opt, err := Optimize(Problem{Curves: curves, Units: units})
		if err != nil {
			t.Fatal(err)
		}
		if sttw.Objective > opt.Objective+1e-6 {
			t.Errorf("seed %d: STTW %v worse than optimal %v on convex curves", seed, sttw.Objective, opt.Objective)
		}
	}
}

func TestSTTWFailsOnCliffCurves(t *testing.T) {
	// Program a has a working-set cliff: zero gain until all 4 units
	// arrive at once. Program b offers steady small gains. The myopic
	// greedy spends every unit on b and never reaches a's cliff; the DP
	// gives a its 4 units and wins outright.
	a := mkCurve("a", 2000, 1, 1, 1, 1, 0.01)
	b := mkCurve("b", 1000, 1.0, 0.7, 0.45, 0.25, 0.1)
	curves := []mrc.Curve{a, b}
	sttw := STTW(curves, 4)
	opt, err := Optimize(Problem{Curves: curves, Units: 4})
	if err != nil {
		t.Fatal(err)
	}
	if sttw.Alloc[0] != 0 || sttw.Alloc[1] != 4 {
		t.Fatalf("STTW alloc = %v, want [0 4] (greedy drained by b)", sttw.Alloc)
	}
	if opt.Alloc[0] != 4 {
		t.Fatalf("optimal alloc = %v, want program a to get all 4 units", opt.Alloc)
	}
	if sttw.Objective <= opt.Objective {
		t.Errorf("expected STTW (%v) to lose to optimal (%v) on cliff curves", sttw.Objective, opt.Objective)
	}
}

func TestSTTWNeverBeatsOptimal(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, seed^55))
		units := rng.IntN(16) + 4
		n := rng.IntN(4) + 2
		curves := make([]mrc.Curve, n)
		for p := range curves {
			curves[p] = randCurve(rng, "p", units)
		}
		sttw := STTW(curves, units)
		opt, err := Optimize(Problem{Curves: curves, Units: units})
		if err != nil {
			return false
		}
		return opt.Objective <= sttw.Objective+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestSTTWPanics(t *testing.T) {
	for i, f := range []func(){
		func() { STTW(nil, 4) },
		func() { STTW([]mrc.Curve{mkCurve("a", 1, 1, 0)}, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

func TestEvaluate(t *testing.T) {
	a := mkCurve("a", 1000, 1.0, 0.5, 0.2)
	b := mkCurve("b", 1000, 0.4, 0.3, 0.2)
	pr := Problem{Curves: []mrc.Curve{a, b}, Units: 2}
	sol, err := Evaluate(pr, Allocation{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.Objective-800) > 1e-9 {
		t.Errorf("objective = %v, want 800", sol.Objective)
	}
	if math.Abs(sol.GroupMissRatio-0.4) > 1e-9 {
		t.Errorf("group mr = %v, want 0.4", sol.GroupMissRatio)
	}
	if _, err := Evaluate(pr, Allocation{1}); err == nil {
		t.Error("expected error on mismatched allocation")
	}
}

func TestAllocationTotal(t *testing.T) {
	if (Allocation{1, 2, 3}).Total() != 6 {
		t.Fatal("Total broken")
	}
}

func BenchmarkOptimize4x1024(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 2))
	units := 1024
	curves := make([]mrc.Curve, 4)
	for p := range curves {
		curves[p] = randCurve(rng, "p", units)
	}
	pr := Problem{Curves: curves, Units: units}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Optimize(pr); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSTTW4x1024(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 2))
	units := 1024
	curves := make([]mrc.Curve, 4)
	for p := range curves {
		curves[p] = randCurve(rng, "p", units)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		STTW(curves, units)
	}
}

// Eq. 13-14: at the optimum over CONVEX curves, the weighted marginal
// miss-count reductions are equalized — no single-unit transfer between
// two programs can improve the objective. This is the classical STTW
// optimality condition, which the DP must satisfy a fortiori.
func TestOptimumEqualizesWeightedDerivatives(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewPCG(seed, seed*19))
		units := rng.IntN(30) + 10
		n := rng.IntN(3) + 2
		curves := make([]mrc.Curve, n)
		for p := range curves {
			curves[p] = randCurve(rng, "p", units).ConvexMinorant()
		}
		sol, err := Optimize(Problem{Curves: curves, Units: units})
		if err != nil {
			t.Fatal(err)
		}
		// One-unit transfer from program i to program j never helps.
		for i := 0; i < n; i++ {
			if sol.Alloc[i] == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				if i == j {
					continue
				}
				loss := curves[i].MissCount(sol.Alloc[i]-1) - curves[i].MissCount(sol.Alloc[i])
				gain := curves[j].MissCount(sol.Alloc[j]) - curves[j].MissCount(sol.Alloc[j]+1)
				if gain > loss+1e-9 {
					t.Fatalf("seed %d: transferring a unit from %d to %d gains %v > loses %v",
						seed, i, j, gain, loss)
				}
			}
		}
	}
}

// Giving the cache more units never worsens the optimal objective
// (monotone resource property).
func TestOptimalMonotoneInCacheSize(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 17))
	units := 24
	curves := []mrc.Curve{
		randCurve(rng, "a", units),
		randCurve(rng, "b", units),
		randCurve(rng, "c", units),
	}
	prev := math.Inf(1)
	for c := 1; c <= units; c++ {
		sol, err := Optimize(Problem{Curves: curves, Units: c})
		if err != nil {
			t.Fatal(err)
		}
		if sol.Objective > prev+1e-9 {
			t.Fatalf("objective rose from %v to %v at %d units", prev, sol.Objective, c)
		}
		prev = sol.Objective
	}
}

// Merging two programs' curves into a pseudo-program never beats
// optimizing them separately (subadditivity of the optimal partition).
func TestOptimalSubadditivity(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 23))
	units := 20
	a := randCurve(rng, "a", units)
	b := randCurve(rng, "b", units)
	c := randCurve(rng, "c", units)
	whole, err := Optimize(Problem{Curves: []mrc.Curve{a, b, c}, Units: units})
	if err != nil {
		t.Fatal(err)
	}
	// Split the cache arbitrarily between {a} and {b,c} and optimize each
	// side: the best split equals the joint optimum.
	best := math.Inf(1)
	for split := 0; split <= units; split++ {
		lhs, err1 := Optimize(Problem{Curves: []mrc.Curve{a}, Units: max(split, 1)})
		rhs, err2 := Optimize(Problem{Curves: []mrc.Curve{b, c}, Units: max(units-split, 1)})
		if split == 0 {
			lhs.Objective = a.MissCount(0)
		} else if err1 != nil {
			t.Fatal(err1)
		}
		if units-split == 0 {
			rhs.Objective = b.MissCount(0) + c.MissCount(0)
		} else if err2 != nil {
			t.Fatal(err2)
		}
		if v := lhs.Objective + rhs.Objective; v < best {
			best = v
		}
	}
	if math.Abs(best-whole.Objective) > 1e-9 {
		t.Fatalf("best split %v != joint optimum %v", best, whole.Objective)
	}
}

// bruteForce enumerates every allocation of Units units among the programs
// (respecting bounds) and returns the best: the exponential oracle the DP
// is cross-checked against.
func bruteForce(pr Problem) (Solution, error) {
	if err := pr.validate(); err != nil {
		return Solution{}, err
	}
	n, C := len(pr.Curves), pr.Units
	best := Solution{Objective: math.Inf(1)}
	alloc := make(Allocation, n)
	var rec func(p, left int, acc float64)
	rec = func(p, left int, acc float64) {
		if p == n-1 {
			lo, hi := pr.bounds(p)
			if left < lo || left > hi {
				return
			}
			alloc[p] = left
			c := pr.cost(p, left)
			var obj float64
			if pr.Combine == Minimax {
				obj = math.Max(acc, c)
			} else {
				obj = acc + c
			}
			if obj < best.Objective {
				cp := make(Allocation, n)
				copy(cp, alloc)
				best = pr.solution(cp, obj)
			}
			return
		}
		lo, hi := pr.bounds(p)
		for u := lo; u <= hi && u <= left; u++ {
			alloc[p] = u
			c := pr.cost(p, u)
			if pr.Combine == Minimax {
				rec(p+1, left-u, math.Max(acc, c))
			} else {
				rec(p+1, left-u, acc+c)
			}
		}
	}
	start := 0.0
	if pr.Combine == Minimax {
		start = math.Inf(-1)
	}
	rec(0, C, start)
	if math.IsInf(best.Objective, 1) {
		return Solution{}, fmt.Errorf("partition: no feasible allocation")
	}
	return best, nil
}
