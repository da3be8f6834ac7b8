package partition

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"testing"

	"partitionshare/internal/mrc"
	"partitionshare/internal/obs"
	"partitionshare/internal/workload"
)

// solveExact solves pr on the exact rung alone, skipping refinement: the
// anchor the refinement rung is differentially tested against.
func solveExact(pr Problem) (Solution, error) { return solve(nil, &pr, true) }

// BenchmarkExactRung times the exact rung alone, one O(P·C²) DP, on the
// paper's first four programs at C=1024 and on their footprints
// resampled at one block per unit to C=4096: the anchors DESIGN.md §13.1
// sets the solver ladder (the root package's
// BenchmarkOptimalPartitionGroup) against.
func BenchmarkExactRung(b *testing.B) {
	cfg := workload.DefaultConfig()
	progs, err := workload.ProfileAll(context.Background(), workload.Specs()[:4], cfg)
	if err != nil {
		b.Fatal(err)
	}
	for _, units := range []int{cfg.Units, 4096} {
		pr := Problem{Units: units}
		for _, p := range progs {
			c := p.Curve
			if units != cfg.Units {
				c = mrc.FromFootprint(p.Name, p.Fp, units, 1, p.Rate)
			}
			pr.Curves = append(pr.Curves, c)
		}
		b.Run(fmt.Sprintf("units=%d", units), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := solveExact(pr); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// checkBitExact asserts that pr is feasible and that every solve path
// reproduces the reference solution bit for bit (checkSolutionBits).
func checkBitExact(t *testing.T, pr Problem, label string) {
	t.Helper()
	if _, err := ReferenceOptimize(pr); err != nil {
		t.Fatalf("%s: reference: %v", label, err)
	}
	checkSolutionBits(t, pr, label)
}

// checkSolutionBits asserts that every solve path — Optimize, the exact
// rung alone and the cancellable OptimizeContext — agrees with
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
		{"auto", Optimize},
		{"exact", solveExact},
		{"context", func(q Problem) (Solution, error) { return OptimizeContext(context.Background(), q) }},
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

// TestExactRungMatchesReference pins the exact rung, which computes only
// the final cell of its last layer, to the reference at n ∈ {1, 2, 4, 16}
// with and without Min/MaxAlloc, through every solve path
// (checkSolutionBits), and checks that partition.dp_cells counts the
// cells it computed: C+1 per layer, one for the last. The C = 6200 case
// runs the flat minPlus scan over candidate windows of thousands of
// cells.
func TestExactRungMatchesReference(t *testing.T) {
	prevReg := obs.Enabled()
	reg := obs.NewRegistry()
	obs.Enable(reg)
	defer obs.Enable(prevReg)
	cases := []struct{ n, units int }{{1, 96}, {2, 96}, {4, 96}, {16, 96}, {2, 6200}}
	for i, tc := range cases {
		for _, bounded := range []bool{false, true} {
			seed := uint64(100 + i)
			pr := randProblem(seed, tc.n, tc.units)
			label := fmt.Sprintf("n=%d units=%d bounded=%v", tc.n, tc.units, bounded)
			C := tc.units
			if bounded {
				rng := rand.New(rand.NewPCG(seed, 7))
				pr.MinAlloc = make([]int, tc.n)
				pr.MaxAlloc = make([]int, tc.n)
				hiSum := 0
				for p := range pr.MinAlloc {
					pr.MinAlloc[p] = rng.IntN(tc.units/(2*tc.n) + 1)
					C -= pr.MinAlloc[p]
					pr.MaxAlloc[p] = pr.MinAlloc[p] + rng.IntN(2*tc.units/tc.n+1)
					hiSum += pr.MaxAlloc[p]
				}
				if hiSum < tc.units {
					pr.MaxAlloc[0] += tc.units - hiSum
				}
			}
			checkBitExact(t, pr, label)

			before := reg.Counter(mDPCells).Value()
			sol, err := solveExact(pr)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if sol.SolverPath != "exact" {
				t.Fatalf("%s: path %q, want exact", label, sol.SolverPath)
			}
			if got, want := reg.Counter(mDPCells).Value()-before, int64((tc.n-1)*(C+1)+1); got != want {
				t.Errorf("%s: dp_cells %d, want %d", label, got, want)
			}
		}
	}
}

// TestRefineDifferentialLargeC checks the refinement rung end to end on
// realistic random curves at sizes where Optimize selects it, against
// the exact rung alone and the reference.
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
			want, err := solveExact(pr)
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

// TestRefineAutoFires asserts Optimize takes the refinement rung from
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

// certifyCostRowReference is the per-value predicate certifyCostRow
// replaced: reject at the first negative, −0 or NaN cost, else return
// the row's maximum from 0.
func certifyCostRowReference(row []float64) (float64, bool) {
	layerMax := 0.0
	for _, c := range row {
		if !(c >= 0) || (c == 0 && math.Signbit(c)) {
			return 0, false
		}
		if c > layerMax {
			layerMax = c
		}
	}
	return layerMax, true
}

// TestCertifyCostRowMatchesPredicate: the bitwise certificate makes the
// same accept/reject decision as the per-value predicate, and the same
// row maximum bit for bit, with every edge value of float64 in the
// first, a middle and the last slot of a row.
func TestCertifyCostRowMatchesPredicate(t *testing.T) {
	const n = 1025
	decreasing := make([]float64, n)
	for u := range decreasing {
		decreasing[u] = 1e6 / float64(u+1)
	}
	bases := map[string][]float64{"decreasing": decreasing, "zeros": make([]float64, n)}
	specials := map[string]float64{
		"+0":           0,
		"-0":           math.Copysign(0, -1),
		"-tiny":        -math.SmallestNonzeroFloat64,
		"-1":           -1,
		"+NaN":         math.NaN(),
		"-NaN":         math.Copysign(math.NaN(), -1),
		"NaN-payload":  math.Float64frombits(0x7ff0000000000001),
		"+Inf":         math.Inf(1),
		"-Inf":         math.Inf(-1),
		"MaxFloat64":   math.MaxFloat64,
		"-MaxFloat64":  -math.MaxFloat64,
		"+subnormal":   math.SmallestNonzeroFloat64,
		"+subnormal-1": math.Float64frombits(0x000fffffffffffff),
		"-subnormal":   math.Float64frombits(0x800fffffffffffff),
		"+normal-min":  math.Float64frombits(0x0010000000000000),
	}
	check := func(label string, row []float64) {
		t.Helper()
		wantMax, wantOK := certifyCostRowReference(row)
		gotMax, gotOK := certifyCostRow(row)
		if gotOK != wantOK {
			t.Fatalf("%s: accepted %v, predicate %v", label, gotOK, wantOK)
		}
		if gotOK && math.Float64bits(gotMax) != math.Float64bits(wantMax) {
			t.Fatalf("%s: layerMax %x, predicate %x", label, math.Float64bits(gotMax), math.Float64bits(wantMax))
		}
	}
	for bname, base := range bases {
		check(bname, base)
		for sname, v := range specials {
			for _, slot := range []int{0, n / 2, n - 1} {
				row := append([]float64(nil), base...)
				row[slot] = v
				check(fmt.Sprintf("%s/%s@%d", bname, sname, slot), row)
				// Pairs: the special value beside +Inf and beside a NaN.
				for _, w := range []float64{math.Inf(1), math.NaN()} {
					row2 := append([]float64(nil), row...)
					row2[(slot+1)%n] = w
					check(fmt.Sprintf("%s/%s@%d+%v", bname, sname, slot, w), row2)
				}
			}
		}
	}
}

// TestRefineMatchesExactOnCostTables runs Optimize (refinement) against
// the exact rung alone on piecewise-flat cost tables with long plateaus — the
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

// TestLargeCParallelMatches: the cancellable solve at a refine-eligible
// size must agree bit for bit with Optimize, and the exact rung alone
// with both.
func TestLargeCParallelMatches(t *testing.T) {
	pr := randProblem(8, 3, 2048)
	seq, err := Optimize(pr)
	if err != nil {
		t.Fatal(err)
	}
	if seq.SolverPath != "refine" {
		t.Fatalf("path %q, want refine", seq.SolverPath)
	}
	for _, sv := range []struct {
		name string
		run  func(Problem) (Solution, error)
	}{
		{"context", func(q Problem) (Solution, error) { return OptimizeContext(context.Background(), q) }},
		{"exact", solveExact},
	} {
		got, err := sv.run(pr)
		if err != nil {
			t.Fatal(err)
		}
		if !sameBits(got, seq) {
			t.Errorf("%s (path %s) %v/%v vs Optimize (path %s) %v/%v",
				sv.name, got.SolverPath, got.Objective, got.Alloc, seq.SolverPath, seq.Objective, seq.Alloc)
		}
	}
}
