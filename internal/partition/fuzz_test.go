package partition

import (
	"testing"

	"partitionshare/internal/mrc"
)

// Seed inputs for FuzzOptimize that exercise each rung of the solver
// ladder at refinement scale: the high bit of byte 0 stretches both into
// C ≥ refineMinUnits monotone instances, and byte 2 picks auto (which
// must take the refinement rung) or forced exact.
var (
	fuzzSeedRefine = []byte{0x82, 37, 0, 240, 200, 160, 120, 90, 60, 40, 20, 10, 250, 180, 90, 30, 5}
	fuzzSeedExact  = []byte{0x82, 37, 1, 240, 200, 160, 120, 90, 60, 40, 20, 10, 250, 180, 90, 30, 5}
)

// fuzzProblem decodes arbitrary fuzz bytes into a partitioning instance.
// Byte 0 picks the program count from its low seven bits; its high bit
// selects the stretched form described below. Byte 1 picks the unit
// count, and byte 2 the solver (auto or forced exact — both must match
// the reference bit-for-bit).
//
// Unstretched, C is 2..25 and the rest of the bytes become miss-ratio
// points in [0, 1]: arbitrary shapes, including non-monotone and
// non-convex curves, since the DP claims optimality with no assumptions
// on the curves. Stretched, C is 512..640 — the scale where auto takes
// the refinement rung — and each program reads 8 bytes as miss-ratio
// knots: the knots' running minimum is interpolated linearly across C,
// giving the monotone (but still non-convex, plateau-rich) curves real
// profiles produce.
func fuzzProblem(data []byte) (Problem, bool) {
	if len(data) < 3 {
		return Problem{}, false
	}
	n := int(data[0]&0x7f)%3 + 2 // 2..4 programs
	stretch := data[0]&0x80 != 0
	units := int(data[1])%24 + 2 // 2..25 units
	if stretch {
		units = int(data[1])%129 + refineMinUnits // 512..640 units
	}
	solver := Solver(int(data[2]) % 2)
	data = data[3:]
	next := func() float64 {
		var b byte = 128
		if len(data) > 0 {
			b, data = data[0], data[1:]
		}
		return float64(b) / 255
	}
	curves := make([]mrc.Curve, n)
	for p := range curves {
		mr := make([]float64, units+1)
		if stretch {
			const knots = 8
			k := make([]float64, knots+1)
			k[0] = 1
			for i := 1; i <= knots; i++ {
				k[i] = min(k[i-1], next())
			}
			for u := range mr {
				x := float64(u) * knots / float64(units)
				i := min(int(x), knots-1)
				mr[u] = k[i] + (k[i+1]-k[i])*(x-float64(i))
			}
		} else {
			for u := range mr {
				mr[u] = next()
			}
		}
		curves[p] = mrc.Curve{Name: "f", MR: mr, Accesses: int64(100 * (p + 1))}
	}
	return Problem{Curves: curves, Units: units, Solver: solver}, true
}

// TestFuzzSeedRungs pins what the stretched seeds are for: without the
// auto one, the fuzz corpus would never reach the refinement rung.
func TestFuzzSeedRungs(t *testing.T) {
	for _, tc := range []struct {
		seed []byte
		want string
	}{{fuzzSeedRefine, "refine"}, {fuzzSeedExact, "exact"}} {
		pr, ok := fuzzProblem(tc.seed)
		if !ok {
			t.Fatal("seed does not decode")
		}
		sol, err := Optimize(pr)
		if err != nil {
			t.Fatal(err)
		}
		if sol.SolverPath != tc.want {
			t.Errorf("seed %v at C=%d: path %q, want %q", tc.seed[:3], pr.Units, sol.SolverPath, tc.want)
		}
	}
}

// FuzzOptimize differentially tests the pooled gather-form DP kernel and
// the refinement rung against the straightforward reference DP on
// arbitrary curves: both must agree bit-for-bit (objective, allocation,
// tie-breaking) and never panic. The parallel solver must agree too.
func FuzzOptimize(f *testing.F) {
	f.Add([]byte{2, 8, 200, 150, 100, 50, 25, 10, 5, 1})
	f.Add([]byte{0, 0, 0})
	f.Add([]byte{3, 23, 255, 0, 255, 0, 255, 0, 128, 128, 64, 32})
	f.Add([]byte{2, 20, 1, 240, 200, 160, 120, 90, 60, 40, 20, 10})
	f.Add(fuzzSeedRefine)
	f.Add(fuzzSeedExact)

	f.Fuzz(func(t *testing.T, data []byte) {
		pr, ok := fuzzProblem(data)
		if !ok {
			return
		}
		// The reference is solver-blind; the selection must not change
		// results, only the computation strategy.
		refPr := pr
		refPr.Solver = SolverAuto
		want, errRef := ReferenceOptimize(refPr)
		got, errOpt := Optimize(pr)
		if (errRef == nil) != (errOpt == nil) {
			t.Fatalf("error disagreement: reference %v, optimized %v", errRef, errOpt)
		}
		if errRef != nil {
			return
		}
		if got.Objective != want.Objective {
			t.Fatalf("objective %v != reference %v (path %s)", got.Objective, want.Objective, got.SolverPath)
		}
		for i := range want.Alloc {
			if got.Alloc[i] != want.Alloc[i] {
				t.Fatalf("alloc %v != reference %v (path %s)", got.Alloc, want.Alloc, got.SolverPath)
			}
		}
		par, err := OptimizeParallel(nil, pr, 3)
		if err != nil {
			t.Fatalf("parallel solve failed: %v", err)
		}
		if par.Objective != want.Objective {
			t.Fatalf("parallel objective %v != reference %v", par.Objective, want.Objective)
		}
	})
}
