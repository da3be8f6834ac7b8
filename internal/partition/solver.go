package partition

import "fmt"

// Solver selects the solving strategy for Optimize and OptimizeParallel.
// Every strategy returns bit-identical results — objective, allocation,
// and tie-breaking — to ReferenceOptimize; the choice only affects how
// the minima are computed (DESIGN.md §13). The zero value, SolverAuto,
// is the default for every existing caller.
type Solver int

const (
	// SolverAuto walks the two-rung solver ladder: coarse-to-fine
	// refinement for eligible instances (C ≥ refineMinUnits), and the
	// blocked exact gather kernel for everything refinement declines.
	SolverAuto Solver = iota
	// SolverExact forces the exact gather kernel on every layer — the
	// ladder's bottom rung, and the bit-exactness anchor refinement is
	// tested against.
	SolverExact
)

func (s Solver) String() string {
	switch s {
	case SolverAuto:
		return "auto"
	case SolverExact:
		return "exact"
	}
	return fmt.Sprintf("solver(%d)", int(s))
}

// ParseSolver converts a flag string to a Solver.
func ParseSolver(s string) (Solver, error) {
	switch s {
	case "auto", "":
		return SolverAuto, nil
	case "exact":
		return SolverExact, nil
	}
	return SolverAuto, fmt.Errorf("partition: unknown solver %q (want auto or exact)", s)
}

// solvePath accumulates which rungs of the ladder actually ran during one
// solve, for the Solution.SolverPath report and the obs counters.
type solvePath struct {
	refine         bool
	refineFallback bool
	exactLayers    int
	cells          int64 // DP cells computed
	bandCells      int64 // cells retained by refinement bands
}

// String renders the rung combination: "refine", "exact", or
// "refine-fallback+exact" when refinement was attempted and declined.
func (p *solvePath) String() string {
	switch {
	case p.refine:
		return "refine"
	case p.refineFallback:
		return "refine-fallback+exact"
	}
	return "exact"
}
