package partition

import (
	"context"
	"reflect"
	"testing"

	"partitionshare/internal/mrc"
)

// Seed inputs for FuzzOptimize that exercise each rung of the solver
// ladder at refinement scale: the high bit of byte 0 stretches them into
// C ≥ refineMinUnits monotone instances, and byte 2 picks Optimize (which
// must take the refinement rung) or the exact rung alone. The bounded
// seed is the refine one with lower bounds summing to 35 of its 549
// units, so its feasible box (C′ = 514) still takes the refinement rung.
var (
	fuzzSeedRefine  = []byte{0x82, 37, 0, 240, 200, 160, 120, 90, 60, 40, 20, 10, 250, 180, 90, 30, 5}
	fuzzSeedExact   = []byte{0x82, 37, 1, 240, 200, 160, 120, 90, 60, 40, 20, 10, 250, 180, 90, 30, 5}
	fuzzSeedBounded = []byte{0x82, 37, 18, 240, 200, 160, 120, 90, 60, 40, 20, 10, 250, 180, 90, 30, 5}
)

// fuzzProblem decodes arbitrary fuzz bytes into a partitioning instance.
// Byte 0 picks the program count from its low seven bits; its high bit
// selects the stretched form described below. Byte 1 picks the unit
// count. Byte 2's low bit picks the rung (exact reports whether to skip
// refinement; both must match the reference bit-for-bit) and its upper
// seven bits the per-program bounds (fuzzBounds).
//
// Unstretched, C is 2..25 and the rest of the bytes become miss-ratio
// points in [0, 1]: arbitrary shapes, including non-monotone and
// non-convex curves, since the DP claims optimality with no assumptions
// on the curves. Stretched, C is 512..640 — the scale where Optimize
// takes the refinement rung — and each program reads 8 bytes as miss-ratio
// knots: the knots' running minimum is interpolated linearly across C,
// giving the monotone (but still non-convex, plateau-rich) curves real
// profiles produce.
func fuzzProblem(data []byte) (pr Problem, exact, ok bool) {
	if len(data) < 3 {
		return Problem{}, false, false
	}
	n := int(data[0]&0x7f)%3 + 2 // 2..4 programs
	stretch := data[0]&0x80 != 0
	units := int(data[1])%24 + 2 // 2..25 units
	if stretch {
		units = int(data[1])%129 + refineMinUnits // 512..640 units
	}
	exact = data[2]&1 != 0
	bounds := data[2] >> 1
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
	pr = Problem{Curves: curves, Units: units}
	pr.MinAlloc, pr.MaxAlloc = fuzzBounds(bounds, n, units)
	return pr, exact, true
}

// solveFuzz solves pr on the rung fuzzProblem picked.
func solveFuzz(pr Problem, exact bool) (Solution, error) {
	if exact {
		return solveExact(pr)
	}
	return Optimize(pr)
}

// fuzzBounds decodes seven bits b into feasible bounds for n programs
// over C units: bit 0 installs MinAlloc, bit 1 MaxAlloc, and bits 2..6
// (k in 0..31) give the lower bounds ⌊C·k/31⌋ units in total — all of C
// at k = 31 — split unevenly across the programs. Program p's upper bound
// is its lower bound plus (p+1)/n of the C′ units left, so every program
// but the last is held below lo + C′ and the upper bounds stay feasible.
func fuzzBounds(b byte, n, units int) (minAlloc, maxAlloc []int) {
	lo := make([]int, n)
	if b&1 != 0 {
		total := units * int(b>>2) / 31
		left := total
		for p := range lo {
			lo[p] = total * (p + 1) / (n * (n + 1) / 2)
			left -= lo[p]
		}
		lo[n-1] += left
		minAlloc = lo
	}
	if b&2 != 0 {
		rest := units
		for _, l := range lo {
			rest -= l
		}
		maxAlloc = make([]int, n)
		for p := range maxAlloc {
			maxAlloc[p] = lo[p] + rest*(p+1)/n
		}
	}
	return minAlloc, maxAlloc
}

// TestFuzzSeedRungs pins what the stretched seeds are for: without the
// refine one, the fuzz corpus would never reach the refinement rung.
func TestFuzzSeedRungs(t *testing.T) {
	for _, tc := range []struct {
		seed []byte
		want string
	}{{fuzzSeedRefine, "refine"}, {fuzzSeedExact, "exact"}, {fuzzSeedBounded, "refine"}} {
		pr, exact, ok := fuzzProblem(tc.seed)
		if !ok {
			t.Fatal("seed does not decode")
		}
		sol, err := solveFuzz(pr, exact)
		if err != nil {
			t.Fatal(err)
		}
		if sol.SolverPath != tc.want {
			t.Errorf("seed %v at C=%d: path %q, want %q", tc.seed[:3], pr.Units, sol.SolverPath, tc.want)
		}
		if tc.seed[2]>>1 != 0 {
			box, lo := pr.feasibleBox()
			if lo == nil || box.Units < refineMinUnits {
				t.Errorf("bounded seed: MinAlloc %v leaves C′=%d, want ≥ %d", pr.MinAlloc, box.Units, refineMinUnits)
			}
		}
	}
}

// FuzzOptimize differentially tests the gather-form DP kernel and the
// refinement rung against the straightforward reference DP on arbitrary
// curves and bounds: both must agree bit-for-bit (objective, allocation,
// tie-breaking, miss ratios) and never panic. The cancellable
// OptimizeContext must agree too.
func FuzzOptimize(f *testing.F) {
	f.Add([]byte{2, 8, 200, 150, 100, 50, 25, 10, 5, 1})
	f.Add([]byte{0, 0, 0})
	f.Add([]byte{3, 23, 1, 0, 255, 0, 255, 0, 128, 128, 64, 32})
	f.Add([]byte{2, 20, 1, 240, 200, 160, 120, 90, 60, 40, 20, 10})
	f.Add(fuzzSeedRefine)
	f.Add(fuzzSeedExact)
	f.Add(fuzzSeedBounded)
	f.Add([]byte{3, 11, 0xfe, 9, 200, 30, 7, 150})    // ΣMinAlloc = C, tight MaxAlloc
	f.Add([]byte{2, 19, 0x2f, 255, 0, 128, 64, 1, 2}) // MinAlloc and MaxAlloc, forced exact

	f.Fuzz(func(t *testing.T, data []byte) {
		pr, exact, ok := fuzzProblem(data)
		if !ok {
			return
		}
		// The rung must not change results, only the computation
		// strategy.
		want, errRef := ReferenceOptimize(pr)
		got, errOpt := solveFuzz(pr, exact)
		if (errRef == nil) != (errOpt == nil) {
			t.Fatalf("error disagreement: reference %v, optimized %v", errRef, errOpt)
		}
		if errRef != nil {
			return
		}
		if got.Objective != want.Objective {
			t.Fatalf("objective %v != reference %v (path %s)", got.Objective, want.Objective, got.SolverPath)
		}
		if !reflect.DeepEqual(got.Alloc, want.Alloc) {
			t.Fatalf("alloc %v != reference %v (path %s, MinAlloc %v, MaxAlloc %v)",
				got.Alloc, want.Alloc, got.SolverPath, pr.MinAlloc, pr.MaxAlloc)
		}
		if got.GroupMissRatio != want.GroupMissRatio || !reflect.DeepEqual(got.MissRatios, want.MissRatios) {
			t.Fatalf("miss ratios %v/%v != reference %v/%v",
				got.GroupMissRatio, got.MissRatios, want.GroupMissRatio, want.MissRatios)
		}
		ctxSol, err := OptimizeContext(context.Background(), pr)
		if err != nil {
			t.Fatalf("context solve failed: %v", err)
		}
		if !sameBits(ctxSol, want) {
			t.Fatalf("context %v/%v != reference %v/%v", ctxSol.Objective, ctxSol.Alloc, want.Objective, want.Alloc)
		}
	})
}
