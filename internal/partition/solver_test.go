package partition

import (
	"context"
	"math"
	"math/rand/v2"
	"reflect"
	"testing"

	"partitionshare/internal/mrc"
	"partitionshare/internal/workload"
)

// allSolvers enumerates both solver modes.
var allSolvers = []Solver{SolverAuto, SolverExact}

// checkBitExact asserts that pr is feasible and that every solve path
// reproduces the reference solution bit for bit (checkSolutionBits).
func checkBitExact(t *testing.T, pr Problem, label string) {
	t.Helper()
	if _, err := ReferenceOptimize(pr); err != nil {
		t.Fatalf("%s: reference: %v", label, err)
	}
	checkSolutionBits(t, pr, label)
}

// checkSolutionBits asserts that every solve path — Optimize under each
// solver mode and OptimizeParallel with three workers — agrees with
// ReferenceOptimize on pr bit for bit: the error outcome, objective bits,
// allocation (tie-breaking included), group miss ratio and per-program
// miss ratios.
func checkSolutionBits(t *testing.T, pr Problem, label string) {
	t.Helper()
	want, errW := ReferenceOptimize(pr)
	solves := []struct {
		name string
		run  func(Problem) (Solution, error)
	}{
		{"auto", func(q Problem) (Solution, error) { q.Solver = SolverAuto; return Optimize(q) }},
		{"exact", func(q Problem) (Solution, error) { q.Solver = SolverExact; return Optimize(q) }},
		{"parallel", func(q Problem) (Solution, error) { return OptimizeParallel(context.Background(), q, 3) }},
	}
	for _, sv := range solves {
		got, errG := sv.run(pr)
		if (errW == nil) != (errG == nil) {
			t.Errorf("%s %s: reference err %v, got err %v", label, sv.name, errW, errG)
			continue
		}
		if errW != nil {
			continue
		}
		if !sameBits(got, want) {
			t.Errorf("%s %s (path %s): %v/%v/%v/%v, reference %v/%v/%v/%v", label, sv.name, got.SolverPath,
				got.Objective, got.Alloc, got.GroupMissRatio, got.MissRatios,
				want.Objective, want.Alloc, want.GroupMissRatio, want.MissRatios)
		}
	}
}

func sameBits(a, b Solution) bool {
	if math.Float64bits(a.Objective) != math.Float64bits(b.Objective) ||
		math.Float64bits(a.GroupMissRatio) != math.Float64bits(b.GroupMissRatio) ||
		len(a.Alloc) != len(b.Alloc) || len(a.MissRatios) != len(b.MissRatios) {
		return false
	}
	for p := range a.Alloc {
		if a.Alloc[p] != b.Alloc[p] || math.Float64bits(a.MissRatios[p]) != math.Float64bits(b.MissRatios[p]) {
			return false
		}
	}
	return true
}

func TestSolverModesBitExactRandom(t *testing.T) {
	for seed := uint64(1); seed <= 60; seed++ {
		n := int(seed%4) + 2
		units := int(seed%50) + 8
		pr := randProblem(seed, n, units)
		checkBitExact(t, pr, "random")
	}
}

// TestRefineDifferentialLargeC checks the refinement rung end to end on
// realistic random curves at sizes where auto mode selects it, against
// the forced-exact kernel and the reference.
func TestRefineDifferentialLargeC(t *testing.T) {
	if testing.Short() {
		t.Skip("large-C differential in -short mode")
	}
	for _, units := range []int{512, 1024, 2048} {
		for seed := uint64(1); seed <= 3; seed++ {
			pr := randProblem(seed, 3, units)
			got, err := Optimize(pr)
			if err != nil {
				t.Fatal(err)
			}
			pr.Solver = SolverExact
			want, err := Optimize(pr)
			if err != nil {
				t.Fatal(err)
			}
			if got.Objective != want.Objective || !reflect.DeepEqual(got.Alloc, want.Alloc) {
				t.Errorf("units=%d seed=%d: refine (path %s) %v/%v vs exact %v/%v",
					units, seed, got.SolverPath, got.Objective, got.Alloc, want.Objective, want.Alloc)
			}
		}
	}
	// One reference-sized instance with the full bit-exactness cross-check.
	pr := randProblem(99, 4, 512)
	checkBitExact(t, pr, "refine-range")
}

// TestRefineAutoFires asserts auto mode takes the refinement rung from
// refineMinUnits up — on random curves at the floor and on the paper's
// first four programs at the daemon's default C=1024 — that lower bounds
// count against that floor through the feasible box C′ = C − ΣMinAlloc,
// and that minimax disables it.
func TestRefineAutoFires(t *testing.T) {
	pr := randProblem(5, 4, refineMinUnits)
	got, err := Optimize(pr)
	if err != nil {
		t.Fatal(err)
	}
	if got.SolverPath != "refine" {
		t.Errorf("auto at C=%d: path %q, want %q", refineMinUnits, got.SolverPath, "refine")
	}
	checkBitExact(t, pr, "refine-floor")

	// Profiling the paper's programs at full geometry takes ~0.5 s, and
	// over 10 s under the race detector, where it would starve the
	// timing-sensitive tests of packages running beside it.
	if testing.Short() || raceEnabled {
		t.Log("paper programs at C=1024 skipped in -short mode and under -race")
	} else {
		progs, err := workload.ProfileAll(context.Background(), workload.Specs()[:4], workload.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		paper := Problem{Units: workload.DefaultConfig().Units}
		for _, p := range progs {
			paper.Curves = append(paper.Curves, p.Curve)
		}
		sol, err := Optimize(paper)
		if err != nil {
			t.Fatal(err)
		}
		if sol.SolverPath != "refine" {
			t.Errorf("paper programs at C=%d: path %q, want %q", paper.Units, sol.SolverPath, "refine")
		}
		checkBitExact(t, paper, "paper-programs")
	}

	// A lower bound shrinks the solved box: at C=512 it drops below the
	// floor (C′ = 502) and runs exact, at C=1024 it stays above it
	// (C′ = 1014) and refines. Both must match the reference.
	for _, tc := range []struct {
		units int
		want  string
	}{{refineMinUnits, "exact"}, {1024, "refine"}} {
		prB := randProblem(5, 4, tc.units)
		prB.MinAlloc = []int{10, 0, 0, 0}
		sol, err := Optimize(prB)
		if err != nil {
			t.Fatal(err)
		}
		if sol.Alloc[0] < 10 {
			t.Errorf("C=%d: bounds violated: %v", tc.units, sol.Alloc)
		}
		if sol.SolverPath != tc.want {
			t.Errorf("bounded instance at C=%d: path %q, want %q", tc.units, sol.SolverPath, tc.want)
		}
		checkBitExact(t, prB, "bounded")
	}

	prM := randProblem(5, 3, refineMinUnits)
	prM.Combine = Minimax
	solM, err := Optimize(prM)
	if err != nil {
		t.Fatal(err)
	}
	if solM.SolverPath != "exact" {
		t.Errorf("minimax large-C: path %q, want exact", solM.SolverPath)
	}
}

// TestRefineNegativeCostsFallBack: negative custom costs must be declined
// by the refinement certificate (relative pruning margins are unsound
// under cancellation) and still solve bit-exactly.
func TestRefineNegativeCostsFallBack(t *testing.T) {
	units := 600
	n := 3
	rng := rand.New(rand.NewPCG(3, 9))
	tab := make([][]float64, n)
	for p := range tab {
		row := make([]float64, units+1)
		for u := range row {
			row[u] = rng.Float64()*200 - 100
		}
		tab[p] = row
	}
	curves := make([]mrc.Curve, n)
	for p := range curves {
		curves[p] = mkCurve("neg", 1000, 1, 0.5)
	}
	pr := Problem{Curves: curves, Units: units, CostTable: tab}
	got, err := Optimize(pr)
	if err != nil {
		t.Fatal(err)
	}
	if got.SolverPath != "refine-fallback+exact" {
		t.Errorf("negative costs: path %q, want refine-fallback+exact", got.SolverPath)
	}
	checkBitExact(t, pr, "negative-costs")
}

func TestValidateSizeGuards(t *testing.T) {
	c := mkCurve("g", 100, 1, 0.5)
	pr := Problem{Curves: []mrc.Curve{c}, Units: MaxUnits + 1}
	if _, err := Optimize(pr); err == nil {
		t.Error("Units > MaxUnits accepted")
	}
	// Enough programs to push the cell product over maxSolveCells without
	// allocating anything: validate must fail before the DP allocates.
	many := make([]mrc.Curve, 20000)
	for i := range many {
		many[i] = c
	}
	pr = Problem{Curves: many, Units: 1 << 16}
	if _, err := Optimize(pr); err == nil {
		t.Error("oversized DP table accepted")
	}
}

// TestScratchPoolDropsOversized: solves beyond maxPooledCells must not pin
// their scratch in the pool (allocation-churn guard for C=65536 audits).
func TestScratchPoolDropsOversized(t *testing.T) {
	s := getScratch(3, 1<<21) // (3+1)·(2^21+1) cells > maxPooledCells
	if int64(len(s.buf)) <= maxPooledCells {
		t.Fatalf("test geometry wrong: buf %d cells", len(s.buf))
	}
	putScratch(s)
	s2 := getScratch(1, 4)
	if len(s2.buf) > 64 {
		t.Errorf("pool returned oversized scratch (%d cells) after put", len(s2.buf))
	}
	putScratch(s2)
}

func TestParseSolverRoundTrip(t *testing.T) {
	for _, sv := range allSolvers {
		got, err := ParseSolver(sv.String())
		if err != nil || got != sv {
			t.Errorf("ParseSolver(%q) = %v, %v", sv.String(), got, err)
		}
	}
	if got, err := ParseSolver(""); err != nil || got != SolverAuto {
		t.Errorf("ParseSolver(\"\") = %v, %v", got, err)
	}
	for _, name := range []string{"dc", "refine", "bogus"} {
		if _, err := ParseSolver(name); err == nil {
			t.Errorf("ParseSolver(%q) accepted", name)
		}
	}
}

// TestRefineMatchesExactOnCostTables runs auto (refinement) against
// forced-exact on piecewise-flat cost tables with long plateaus — the
// shape that stresses tie-breaking, since thousands of allocations share
// the optimal objective.
func TestRefineMatchesExactOnCostTables(t *testing.T) {
	units := 1024
	n := 4
	rng := rand.New(rand.NewPCG(21, 34))
	tab := make([][]float64, n)
	for p := range tab {
		row := make([]float64, units+1)
		v := 1000 * rng.Float64()
		for u := range row {
			row[u] = v
			if rng.IntN(64) == 0 {
				v *= rng.Float64()
			}
		}
		tab[p] = row
	}
	curves := make([]mrc.Curve, n)
	for p := range curves {
		curves[p] = mkCurve("pl", 1000, 1, 0.5)
	}
	pr := Problem{Curves: curves, Units: units, CostTable: tab}
	checkBitExact(t, pr, "plateaus")
	got, err := Optimize(pr)
	if err != nil {
		t.Fatal(err)
	}
	if got.SolverPath != "refine" && got.SolverPath != "refine-fallback+exact" {
		t.Errorf("plateaus: path %q, want refinement attempted", got.SolverPath)
	}
}

// TestLargeCParallelMatches: OptimizeParallel at a refine-eligible size
// must agree with sequential regardless of worker count, and the forced
// exact rung — the only one the worker pool runs — must agree with both.
func TestLargeCParallelMatches(t *testing.T) {
	pr := randProblem(8, 3, 2048)
	seq, err := Optimize(pr)
	if err != nil {
		t.Fatal(err)
	}
	for _, sv := range allSolvers {
		pr.Solver = sv
		par, err := OptimizeParallel(nil, pr, 4)
		if err != nil {
			t.Fatal(err)
		}
		if par.Objective != seq.Objective || !reflect.DeepEqual(par.Alloc, seq.Alloc) {
			t.Errorf("parallel solver=%v (path %s) %v/%v vs sequential (path %s) %v/%v",
				sv, par.SolverPath, par.Objective, par.Alloc, seq.SolverPath, seq.Objective, seq.Alloc)
		}
		if par.GroupMissRatio != seq.GroupMissRatio {
			t.Errorf("solver=%v: group miss ratio drifted: %v vs %v", sv, par.GroupMissRatio, seq.GroupMissRatio)
		}
	}
}
