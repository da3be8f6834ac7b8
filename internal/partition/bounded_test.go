package partition

import (
	"context"
	"math"
	"sync"
	"testing"

	"partitionshare/internal/compose"
	"partitionshare/internal/mrc"
	"partitionshare/internal/workload"
)

var (
	tableIOnce      sync.Once
	tableIProgs     []workload.Program
	tableIErr       error
	tableIGroupList [][]int
)

// tableIGroups returns the 16 suite programs at the full geometry and the
// 1820 four-program Table I groups over them, profiled once per test
// binary.
func tableIGroups(t *testing.T) ([]workload.Program, [][]int) {
	t.Helper()
	tableIOnce.Do(func() {
		tableIProgs, tableIErr = workload.ProfileAll(context.Background(), workload.Specs(), workload.DefaultConfig())
		n := len(tableIProgs)
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				for c := b + 1; c < n; c++ {
					for d := c + 1; d < n; d++ {
						tableIGroupList = append(tableIGroupList, []int{a, b, c, d})
					}
				}
			}
		}
	})
	if tableIErr != nil {
		t.Fatal(tableIErr)
	}
	if len(tableIGroupList) != 1820 {
		t.Fatalf("%d Table I groups, want 1820", len(tableIGroupList))
	}
	return tableIProgs, tableIGroupList
}

// TestBaselinesBitExactPaperScale runs the paper's §VI baseline solves on
// every 16th Table I group (4 of the 16 programs, C=1024, sharing one
// miss-count table as the sweep does) through OptimizeBaseline, forced
// exact and OptimizeParallel, all bit-identical to the reference. These
// are the lower-bounded problems the feasible-box shift serves.
func TestBaselinesBitExactPaperScale(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("paper-scale baselines skipped in -short mode and under -race")
	}
	cfg := workload.DefaultConfig()
	progs, groups := tableIGroups(t)
	tab := make([][]float64, len(progs))
	for i, p := range progs {
		tab[i] = make([]float64, cfg.Units+1)
		for u := range tab[i] {
			tab[i][u] = p.Curve.MissCount(u)
		}
	}
	var shifted, maxBox int
	for gi := 0; gi < len(groups); gi += 16 {
		g := groups[gi]
		pr := Problem{Units: cfg.Units}
		comps := make([]compose.Program, len(g))
		for i, m := range g {
			pr.Curves = append(pr.Curves, progs[m].Curve)
			pr.CostTable = append(pr.CostTable, tab[m])
			comps[i] = compose.Program{Name: progs[m].Name, Fp: progs[m].Fp, Rate: progs[m].Rate}
		}
		baselines := map[string]Allocation{
			"equal":   EqualAllocation(len(g), cfg.Units),
			"natural": Allocation(compose.NaturalPartitionUnits(comps, cfg.Units, cfg.BlocksPerUnit)),
		}
		for name, base := range baselines {
			bounded := pr
			bounded.MinAlloc = BaselineMinAlloc(pr.Curves, base, DefaultBaselineTolerance)
			want, err := ReferenceOptimize(bounded)
			if err != nil {
				t.Fatal(err)
			}
			got, err := OptimizeBaseline(pr, base)
			if err != nil {
				t.Fatal(err)
			}
			if !sameBits(got, want) {
				t.Errorf("group %v %s baseline: OptimizeBaseline %v/%v, reference %v/%v",
					g, name, got.Objective, got.Alloc, want.Objective, want.Alloc)
			}
			checkSolutionBits(t, bounded, name+" baseline")
			if box, lo := bounded.feasibleBox(); lo != nil {
				shifted++
				maxBox = max(maxBox, box.Units)
			}
		}
	}
	if shifted == 0 {
		t.Error("no sampled baseline problem had lower bounds")
	}
	t.Logf("%d bounded problems, largest feasible box C′=%d", shifted, maxBox)
}

// TestBoundedEdgeCases pins the shifted solve on small instances at the
// edges of the feasible-box argument (DESIGN.md §13.2).
func TestBoundedEdgeCases(t *testing.T) {
	a := mkCurve("a", 1000, 1, 0.9, 0.6, 0.6, 0.5, 0.2, 0.2, 0.2, 0.1, 0.1, 0.05, 0.05, 0.0)
	b := mkCurve("b", 700, 1, 0.5, 0.5, 0.5, 0.5, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1)
	c := mkCurve("c", 300, 1, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1, 0.1, 0.1, 0.1, 0.1)
	curves := []mrc.Curve{a, b, c}
	const C = 12
	negNaN := func(p, u int) float64 {
		switch {
		case (p+u)%5 == 0:
			return math.NaN()
		case u%2 == 0:
			return -float64(10*p + u)
		}
		return float64(u*u) - 20
	}
	shared := make([]float64, C+1)
	for u := range shared {
		shared[u] = float64((u*7)%5) + 1/float64(u+1)
	}
	short := mkCurve("short", 500, 1, 0.7, 0.4, 0.3, 0.25) // MR ends at 4 units

	cases := []struct {
		name string
		pr   Problem
	}{
		{"min-sum-equals-C", Problem{Curves: curves, Units: C, MinAlloc: []int{5, 4, 3}}},
		{"min-sum-equals-C-minimax", Problem{Curves: curves, Units: C, MinAlloc: []int{0, 12, 0}, Combine: Minimax}},
		{"max-tighter-than-box", Problem{Curves: curves, Units: C, MinAlloc: []int{2, 1, 3}, MaxAlloc: []int{4, 3, 12}}},
		{"max-below-box-every-program", Problem{Curves: curves, Units: C, MinAlloc: []int{1, 1, 1}, MaxAlloc: []int{5, 5, 5}}},
		{"minimax", Problem{Curves: curves, Units: C, MinAlloc: []int{3, 0, 2}, Combine: Minimax}},
		{"negative-nan-cost", Problem{Curves: curves, Units: C, MinAlloc: []int{2, 3, 1}, Cost: negNaN}},
		{"negative-nan-cost-minimax", Problem{Curves: curves, Units: C, MinAlloc: []int{2, 3, 1}, Cost: negNaN, Combine: Minimax}},
		{"shared-cost-rows", Problem{Curves: curves, Units: C, MinAlloc: []int{1, 4, 2}, CostTable: [][]float64{shared, shared, shared}}},
		{"short-curve-lo-past-end", Problem{Curves: []mrc.Curve{short, a}, Units: C, MinAlloc: []int{7, 2}}},
		{"short-curve-lo-at-end", Problem{Curves: []mrc.Curve{a, short}, Units: C, MinAlloc: []int{0, 4}}},
		{"infeasible-nan", Problem{Curves: curves, Units: C, MinAlloc: []int{4, 4, 4},
			Cost: func(p, u int) float64 { return math.NaN() }}},
	}
	for _, tc := range cases {
		checkSolutionBits(t, tc.pr, tc.name)
	}

	// ΣMinAlloc = C leaves a zero-unit box: the lower bounds are the only
	// allocation, and the exact rung takes it even where C would qualify
	// for refinement.
	big := randProblem(11, 3, 2*refineMinUnits)
	big.MinAlloc = []int{refineMinUnits, refineMinUnits / 2, refineMinUnits / 2}
	checkSolutionBits(t, big, "min-sum-equals-large-C")
	sol, err := Optimize(big)
	if err != nil {
		t.Fatal(err)
	}
	if sol.SolverPath != "exact" {
		t.Errorf("ΣMinAlloc = C: path %q, want exact", sol.SolverPath)
	}
	for p, l := range big.MinAlloc {
		if sol.Alloc[p] != l {
			t.Errorf("ΣMinAlloc = C: alloc %v, want the lower bounds %v", sol.Alloc, big.MinAlloc)
			break
		}
	}
}
