package partition

import (
	"fmt"
	"testing"

	"partitionshare/internal/compose"
	"partitionshare/internal/obs"
	"partitionshare/internal/workload"
)

// bandPin is what one solve shows of the refinement band: its solver
// path and the deltas of partition.refine_band_cells (cells the final
// band retained) and partition.dp_cells (cells computed, band or exact).
type bandPin struct {
	path     string
	band, dp int64
}

// pinSolve runs solve with reg enabled and returns its bandPin.
func pinSolve(t *testing.T, reg *obs.Registry, label string, solve func() (Solution, error)) bandPin {
	t.Helper()
	band0, dp0 := reg.Counter(mRefineBandCells).Value(), reg.Counter(mDPCells).Value()
	sol, err := solve()
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	return bandPin{sol.SolverPath, reg.Counter(mRefineBandCells).Value() - band0, reg.Counter(mDPCells).Value() - dp0}
}

// TestRefineBandPinned pins the band refinement cuts, which the plan
// tests cannot see: two bands that differ by a cell give the same plan
// but a different cell count, and a band that grows past the work budget
// turns refine into refine-fallback+exact. Per solve it pins the path and
// the band and DP cell counts on random problems at C = 512, 1024 and
// 2048 and on the stretched fuzz seeds, and their totals over the Optimal
// and both baseline solves of all 1820 Table I groups.
func TestRefineBandPinned(t *testing.T) {
	prevReg := obs.Enabled()
	reg := obs.NewRegistry()
	obs.Enable(reg)
	defer obs.Enable(prevReg)

	want := map[string]bandPin{
		"units=512 seed=1":  {"refine", 51, 51},
		"units=512 seed=2":  {"refine", 19, 19},
		"units=512 seed=3":  {"refine", 35, 35},
		"units=1024 seed=1": {"refine", 35, 35},
		"units=1024 seed=2": {"refine", 35, 35},
		"units=1024 seed=3": {"refine", 43, 43},
		"units=2048 seed=1": {"refine", 35, 35},
		"units=2048 seed=2": {"refine", 51, 51},
		"units=2048 seed=3": {"refine", 35, 35},
		"fuzz refine":       {"refine", 67, 67},
		"fuzz bounded":      {"refine", 58, 58},
		"fuzz fallback":     {"refine-fallback+exact", 0, 1651},
	}
	got := map[string]bandPin{}
	for _, units := range []int{512, 1024, 2048} {
		for seed := uint64(1); seed <= 3; seed++ {
			pr := randProblem(seed, 3, units)
			label := fmt.Sprintf("units=%d seed=%d", units, seed)
			got[label] = pinSolve(t, reg, label, func() (Solution, error) { return Optimize(pr) })
		}
	}
	for label, seed := range map[string][]byte{"fuzz refine": fuzzSeedRefine, "fuzz bounded": fuzzSeedBounded, "fuzz fallback": fuzzSeedFallback} {
		pr, exact, _ := fuzzProblem(seed)
		got[label] = pinSolve(t, reg, label, func() (Solution, error) { return solveFuzz(pr, exact) })
	}
	for label, w := range want {
		if got[label] != w {
			t.Errorf("%s: %+v, want %+v", label, got[label], w)
		}
	}

	if testing.Short() || raceEnabled {
		t.Skip("Table I band totals skipped in -short mode and under -race")
	}
	cfg := workload.DefaultConfig()
	progs, groups := tableIGroups(t)
	tab := make([][]float64, len(progs))
	for i, p := range progs {
		tab[i] = make([]float64, cfg.Units+1)
		p.Curve.MissCounts(0, tab[i])
	}
	paths := map[string]int{}
	var band, dp int64
	for _, g := range groups {
		pr := Problem{Units: cfg.Units}
		comps := make([]compose.Program, len(g))
		for i, m := range g {
			pr.Curves = append(pr.Curves, progs[m].Curve)
			pr.CostTable = append(pr.CostTable, tab[m])
			comps[i] = compose.Program{Name: progs[m].Name, Fp: progs[m].Fp, Rate: progs[m].Rate}
		}
		label := fmt.Sprint(g)
		for _, solve := range []func() (Solution, error){
			func() (Solution, error) { return Optimize(pr) },
			func() (Solution, error) { return OptimizeBaseline(pr, EqualAllocation(len(g), cfg.Units)) },
			func() (Solution, error) {
				return OptimizeBaseline(pr, Allocation(compose.NaturalPartitionUnits(comps, cfg.Units, cfg.BlocksPerUnit)))
			},
		} {
			pin := pinSolve(t, reg, label, solve)
			paths[pin.path]++
			band += pin.band
			dp += pin.dp
		}
	}
	wantPaths := map[string]int{"exact": 3640, "refine": 1820}
	var wantBand, wantDP int64 = 451518, 1367404
	if fmt.Sprint(paths) != fmt.Sprint(wantPaths) || band != wantBand || dp != wantDP {
		t.Errorf("Table I: paths %v, band cells %d, dp cells %d; want %v, %d, %d",
			paths, band, dp, wantPaths, wantBand, wantDP)
	}
}
