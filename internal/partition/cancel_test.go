package partition

import (
	"context"
	"errors"
	"testing"
)

// cancelCases puts one instance on each rung: the exact rung polls ctx
// between layers, refinement between levels (refineCtxCheck).
var cancelCases = []struct {
	rung string
	pr   Problem
}{
	{"exact", randProblem(42, 3, 64)},
	{"refine", randProblem(5, 4, 1024)},
}

// A pre-cancelled context must stop either rung and return
// context.Canceled instead of a solution: no fall-through from
// refinement to the exact rung, and no finished refinement.
func TestOptimizeParallelCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range cancelCases {
		sol, err := OptimizeContext(ctx, tc.pr)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: error = %v (path %q), want context.Canceled", tc.rung, err, sol.SolverPath)
		}
		if sol.Alloc != nil || sol.SolverPath != "" {
			t.Errorf("%s: cancelled solve returned a solution: %+v", tc.rung, sol)
		}
	}
}

// A live context must not change the rung or the optimum: the
// cancellation checks sit between layers and levels, outside the
// bit-exact kernels.
func TestOptimizeParallelWithContextBitExact(t *testing.T) {
	for _, tc := range cancelCases {
		want, err := ReferenceOptimize(tc.pr)
		if err != nil {
			t.Fatal(err)
		}
		got, err := OptimizeContext(context.Background(), tc.pr)
		if err != nil {
			t.Fatalf("%s: %v", tc.rung, err)
		}
		if got.SolverPath != tc.rung {
			t.Errorf("%s: path %q", tc.rung, got.SolverPath)
		}
		if !sameBits(got, want) {
			t.Errorf("%s: %v/%v != reference %v/%v", tc.rung, got.Objective, got.Alloc, want.Objective, want.Alloc)
		}
	}
}
