package partition

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"partitionshare/internal/mrc"
)

// referenceBaselineMinAlloc is BaselineMinAlloc as it stood on
// per-unit MissRatio calls: the oracle for the MR-column scan.
func referenceBaselineMinAlloc(curves []mrc.Curve, baseline Allocation, tol float64) []int {
	mins := make([]int, len(curves))
	for p, c := range curves {
		target := c.MissRatio(baseline[p]) * (1 + tol)
		u := 0
		for ; u <= c.Units(); u++ {
			if c.MissRatio(u) <= target+1e-15 {
				break
			}
		}
		if u > baseline[p] {
			u = baseline[p]
		}
		mins[p] = u
	}
	return mins
}

// ragged returns n random curves for a units-unit cache whose MR columns
// are shorter than units+1 (so MissRatio clamps), exactly units+1, or
// longer, by program index mod 3. Curve p is non-monotone when rough is
// set and p is odd.
func ragged(rng *rand.Rand, n, units int, rough bool) []mrc.Curve {
	curves := make([]mrc.Curve, n)
	for p := range curves {
		length := units + 1
		switch p % 3 {
		case 0:
			length = 2 + rng.IntN(units-1)
		case 2:
			length += 1 + rng.IntN(units)
		}
		c := randCurve(rng, fmt.Sprint("p", p), length-1)
		if rough && p%2 == 1 {
			for u := range c.MR {
				if rng.IntN(4) == 0 {
					c.MR[u] = min(1, c.MR[u]*(1+rng.Float64()))
				}
			}
		}
		curves[p] = c
	}
	return curves
}

// TestFlatRowsMatchReference holds the paths that read costs as rows —
// costWindow in reconstructAlloc and refine, STTW's MarginalGain and
// BaselineMinAlloc's MR scan — to their per-unit method-call oracles, on
// curves shorter and longer than Units+1 and under all three cost
// sources: curves, a CostTable, and a custom Cost. Units of 600 put the
// unbounded solves on the refinement rung, and the baseline solves on the
// exact rung over their feasible box.
func TestFlatRowsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(26, 7))
	for i := 0; i < 24; i++ {
		n := 2 + rng.IntN(4)
		units := []int{17, 96, 600}[i%3]
		curves := ragged(rng, n, units, i%2 == 1)
		table := make([][]float64, n)
		for p, c := range curves {
			table[p] = make([]float64, units+1+rng.IntN(3))
			for u := range table[p] {
				table[p][u] = c.MissCount(u)
			}
		}
		custom := func(p, u int) float64 { return curves[p].MissCount(u) + float64(u%3) }
		equal := EqualAllocation(n, units)
		for _, src := range []struct {
			name string
			pr   Problem
		}{
			{"curves", Problem{Curves: curves, Units: units}},
			{"table", Problem{Curves: curves, Units: units, CostTable: table}},
			{"custom", Problem{Curves: curves, Units: units, Cost: custom}},
		} {
			label := fmt.Sprintf("#%d n=%d units=%d %s", i, n, units, src.name)
			got, err := Optimize(src.pr)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			want, err := ReferenceOptimize(src.pr)
			if err != nil {
				t.Fatalf("%s: reference: %v", label, err)
			}
			if !sameBits(got, want) {
				t.Fatalf("%s (path %s): alloc %v objective %v, reference %v %v",
					label, got.SolverPath, got.Alloc, got.Objective, want.Alloc, want.Objective)
			}

			mins := BaselineMinAlloc(curves, equal, DefaultBaselineTolerance)
			if want := referenceBaselineMinAlloc(curves, equal, DefaultBaselineTolerance); fmt.Sprint(mins) != fmt.Sprint(want) {
				t.Fatalf("%s: BaselineMinAlloc %v, reference %v", label, mins, want)
			}
			bounded := src.pr
			bounded.MinAlloc = mins
			got, err = Optimize(bounded)
			if err != nil {
				t.Fatalf("%s baseline: %v", label, err)
			}
			want, err = ReferenceOptimize(bounded)
			if err != nil {
				t.Fatalf("%s baseline: reference: %v", label, err)
			}
			if !sameBits(got, want) {
				t.Fatalf("%s baseline %v (path %s): alloc %v, reference %v", label, mins, got.SolverPath, got.Alloc, want.Alloc)
			}
		}
		checkSTTWTieOrder(t, fmt.Sprintf("#%d ragged", i), curves, units)
	}
}

// TestBaselineMinAllocNonMonotone pins the MR-column scan on curves
// that rise and fall: the first unit at or under the target wins, before
// a bump or only after a rise, and a baseline past a short curve's end
// takes its target from the clamped last point.
func TestBaselineMinAllocNonMonotone(t *testing.T) {
	curves := []mrc.Curve{
		mkCurve("bump", 100, 0.9, 0.5, 0.7, 0.5, 0.4),
		mkCurve("rise", 100, 0.6, 0.8, 0.9, 0.7, 0.5),
		mkCurve("short", 100, 0.8, 0.3),
	}
	base := Allocation{3, 4, 4}
	got := BaselineMinAlloc(curves, base, 0)
	want := referenceBaselineMinAlloc(curves, base, 0)
	if fmt.Sprint(got) != fmt.Sprint(want) || fmt.Sprint(got) != "[1 4 1]" {
		t.Fatalf("BaselineMinAlloc = %v, reference %v, want [1 4 1]", got, want)
	}
}
