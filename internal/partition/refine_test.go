package partition

import (
	"context"
	"fmt"
	"math/rand/v2"
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

// TestOptimizeAllocsSuiteGroup pins the allocations of one Table I
// Optimal solve (the suite's first four programs at C = 1024, on the
// refinement rung) at four, whether the costs come from prepared rows, a
// cost table or the curves: every refinement buffer lives in the pooled
// scratch arena, and what is left is the Solution. The pool drops items
// at random under -race, so the pin runs without it.
func TestOptimizeAllocsSuiteGroup(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	cfg := workload.DefaultConfig()
	progs, err := workload.ProfileAll(context.Background(), workload.Specs()[:4], cfg)
	if err != nil {
		t.Fatal(err)
	}
	curves := Problem{Units: cfg.Units}
	for _, p := range progs {
		curves.Curves = append(curves.Curves, p.Curve)
	}
	table, rows := curves, curves
	for _, c := range curves.Curves {
		costs := make([]float64, cfg.Units+1)
		c.MissCounts(0, costs)
		table.CostTable = append(table.CostTable, costs)
		rows.Rows = append(rows.Rows, PrepareRow(costs))
	}
	for _, tc := range []struct {
		name string
		pr   Problem
	}{{"rows", rows}, {"cost table", table}, {"curves", curves}} {
		var path string
		allocs := testing.AllocsPerRun(50, func() {
			sol, err := Optimize(tc.pr)
			if err != nil {
				t.Fatal(err)
			}
			path = sol.SolverPath
		})
		if path != "refine" || allocs > 4 {
			t.Errorf("%s: path %q, %v allocations per solve; want refine, at most 4", tc.name, path, allocs)
		}
	}
}

// refBandSweep and refBandRuns are the band sweeps as a per-cell walk:
// every cell advances the deque by its own window ends. They are the
// oracle for the segment-wise sweeps.
func refBandSweep(row []float64, fMin, fMax, TB2, g2, C, wT, wRow, g int, dq []int32, out []float64) (int, int) {
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
func refBandRuns(row []float64, fMin, fMax, oLo, oHi, g2, C, wT, wRow, g int, opp []float64, limit float64, dq []int32, runs []rspan) ([]rspan, int64) {
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

// TestBandSweepsMatchPerCell diffs the segment-wise band sweeps against
// the per-cell walk on random bound rows: pruned (inf) blocks inside the
// finite span, a poison value outside it that any read past the span
// would pick up as the minimum, coarse (g2 = g/8) and fine (g2 = 1) cuts
// at C not a multiple of g, every side width k, and limits that split
// the cells. The opposite side's segments must cover the per-cell
// sweep's range with its values, and the runs and cell counts must
// match, against the swept side or against none (one zero segment).
func TestBandSweepsMatchPerCell(t *testing.T) {
	rng := rand.New(rand.NewPCG(33, 7))
	for iter := 0; iter < 3000; iter++ {
		g := []int{8, 64, 512}[rng.IntN(3)]
		g2 := 1
		if rng.IntN(2) == 0 {
			g2 = g / 8
		}
		C := g*(2+rng.IntN(40)) + rng.IntN(g)
		TB, TB2 := C/g+1, C/g2+1
		n := 2 + rng.IntN(5)
		k := 1 + rng.IntN(n)
		row := make([]float64, TB)
		fMin := rng.IntN(TB)
		fMax := fMin + rng.IntN(TB-fMin)
		if rng.IntN(10) == 0 {
			fMax = fMin - 1 // empty span
		}
		for s := range row {
			switch {
			case s < fMin || s > fMax:
				row[s] = -1
			case rng.IntN(6) == 0:
				row[s] = inf
			default:
				row[s] = float64(rng.IntN(100))
			}
		}
		wT, wOwn, wOpp := k*(g2-1), k*(g-1), (n-k)*(g-1)
		dq, dqRef := make([]int32, TB), make([]int32, TB)
		outRef := make([]float64, TB2)
		segs := bandSweep(row, fMin, fMax, TB2, g2, C, wT, wOpp, g, dq, nil)
		loRef, hiRef := refBandSweep(row, fMin, fMax, TB2, g2, C, wT, wOpp, g, dqRef, outRef)
		label := fmt.Sprintf("iter %d: g=%d g2=%d C=%d k=%d n=%d span [%d, %d]", iter, g, g2, C, k, n, fMin, fMax)
		S2 := hiRef
		for _, sg := range segs {
			if sg.b != S2 || sg.a > sg.b {
				t.Fatalf("%s: bandSweep segments %v do not tile the per-cell range [%d, %d]", label, segs, loRef, hiRef)
			}
			for ; S2 >= sg.a; S2-- {
				if sg.v != outRef[S2] {
					t.Fatalf("%s: bandSweep segments %v disagree with per-cell out[%d] = %v", label, segs, S2, outRef[S2])
				}
			}
		}
		if S2 != min(loRef, hiRef+1)-1 {
			t.Fatalf("%s: bandSweep segments %v, per-cell range [%d, %d]", label, segs, loRef, hiRef)
		}
		// The own side over the same row, against the opposite side just
		// swept or, as refineBand does for k = n, none: one zero segment.
		opp, outOpp := segs, outRef
		oLo, oHi := loRef, hiRef
		if rng.IntN(3) == 0 {
			oLo, oHi = 0, TB2-1
			opp, outOpp = []oppSeg{{oLo, oHi, 0}}, nil
		}
		limit := float64(rng.IntN(220))
		runs, cells := bandRuns(row, fMin, fMax, g2, wT, wOwn, g, opp, limit, dq, nil)
		runsRef, cellsRef := refBandRuns(row, fMin, fMax, oLo, oHi, g2, C, wT, wOwn, g, outOpp, limit, dqRef, nil)
		if cells != cellsRef || fmt.Sprint(runs) != fmt.Sprint(runsRef) {
			t.Fatalf("%s limit %v: bandRuns %v (%d cells), per-cell %v (%d cells)", label, limit, runs, cells, runsRef, cellsRef)
		}
	}
}
