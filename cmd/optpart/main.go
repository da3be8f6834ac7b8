// Command optpart computes cache allocations for a co-run group from HOTL
// profile files, mirroring the paper's optimizer workflow (§VII-A: "the
// optimizer reads 4 footprints from 4 files"). It prints all six schemes —
// Equal, Natural, Equal-baseline, Natural-baseline, Optimal, STTW — with
// per-program allocations and miss ratios.
//
// Every DP solve walks the two-rung solver ladder of DESIGN.md §13.
// -baselines=false skips everything but the Optimal solve (the large-C
// timing configuration: the baseline-constrained DPs are quadratic in C
// and would dominate a solver-rung measurement), and -manifest writes a
// run manifest recording the geometry, the solver counters, and the
// SolverPath each DP scheme actually took.
//
// SIGINT/SIGTERM drain gracefully: the in-flight solve finishes (the
// Optimal DP itself is cancellable between layers), the manifest is
// written with whatever schemes completed, and the process exits 130.
//
// Usage:
//
//	optpart [-units 1024] [-blocksperunit 4] prog1.hotl prog2.hotl ...
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"partitionshare/internal/compose"
	"partitionshare/internal/faultinject"
	"partitionshare/internal/mrc"
	"partitionshare/internal/obs"
	"partitionshare/internal/partition"
	"partitionshare/internal/profileio"
)

// FaultSolve fires before each scheme's solve; the drain test arms it
// with a delay to hold the optimizer mid-run while a signal lands.
const FaultSolve = "optpart.solve"

// options carries the parsed flag record into run, so tests can drive
// the full pipeline in-process.
type options struct {
	units         int
	blocksPerUnit int64
	minimax       bool
	baselines     bool
	manifestPath  string
	paths         []string
}

func main() {
	units := flag.Int("units", 1024, "cache size in partition units")
	blocksPerUnit := flag.Int64("blocksperunit", 4, "cache blocks per partition unit")
	minimax := flag.Bool("minimax", false, "also print the minimax-fair optimal partition")
	baselines := flag.Bool("baselines", true, "compute the baseline schemes (Equal, Natural, Equal/Natural baseline, STTW), not just Optimal")
	manifestPath := flag.String("manifest", "", "run-manifest path recording solver paths and counters (empty disables)")
	flag.Parse()
	if flag.NArg() < 2 {
		fatal(fmt.Errorf("need at least two profile files"))
	}
	if *units < 1 || *blocksPerUnit < 1 {
		fatal(fmt.Errorf("invalid geometry"))
	}

	// SIGINT/SIGTERM cancel ctx; run drains at the next solve boundary
	// (or mid-DP: the kernel polls ctx between layers), the deferred
	// manifest write still lands, and the exit status is the
	// conventional 130.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	err := run(ctx, os.Stdout, options{
		units:         *units,
		blocksPerUnit: *blocksPerUnit,
		minimax:       *minimax,
		baselines:     *baselines,
		manifestPath:  *manifestPath,
		paths:         flag.Args(),
	})
	if errors.Is(err, context.Canceled) {
		fmt.Fprintln(os.Stderr, "optpart: interrupted")
		os.Exit(130)
	}
	if err != nil {
		fatal(err)
	}
}

// run executes the optimizer pipeline, writing scheme reports to w. It
// returns context.Canceled when interrupted; the manifest (when
// requested) is written on every exit path, recording whichever schemes
// completed before the interruption.
func run(ctx context.Context, w io.Writer, opts options) (err error) {
	var curves []mrc.Curve
	var comps []compose.Program
	for _, path := range opts.paths {
		p, rerr := profileio.ReadFile(path)
		if rerr != nil {
			return rerr
		}
		fp := p.Footprint()
		curve := mrc.FromFootprint(p.Name, fp, opts.units, opts.blocksPerUnit, p.Rate)
		curve.Accesses = int64(float64(curve.Accesses) * p.Rate)
		curves = append(curves, curve)
		comps = append(comps, compose.Program{Name: p.Name, Fp: fp, Rate: p.Rate})
	}

	// The manifest, when requested, captures the flag record plus — filled
	// in after each DP solve below — the ladder rung every scheme actually
	// ran (solver_paths), alongside the registry's per-path counters.
	solverPaths := map[string]any{}
	if opts.manifestPath != "" {
		obs.Enable(obs.NewRegistry())
		manifest := obs.NewManifest("optpart", map[string]any{
			"units":           opts.units,
			"blocks_per_unit": opts.blocksPerUnit,
			"programs":        len(opts.paths),
			"baselines":       opts.baselines,
			"minimax":         opts.minimax,
			"solver_paths":    solverPaths,
		})
		defer func() {
			if werr := manifest.Build(obs.Enabled()).Write(opts.manifestPath); werr != nil && err == nil {
				err = werr
			}
		}()
	}

	pr := partition.Problem{Curves: curves, Units: opts.units}
	show := func(label string, sol partition.Solution) {
		if sol.SolverPath != "" {
			solverPaths[label] = sol.SolverPath
		}
		fmt.Fprintf(w, "%-17s group miss ratio %.6f\n", label, sol.GroupMissRatio)
		for i, c := range curves {
			fmt.Fprintf(w, "  %-12s %5d units  mr %.6f\n", c.Name, sol.Alloc[i], sol.MissRatios[i])
		}
	}
	// step gates each scheme's solve: the armed fault point (drain tests
	// hold the pipeline here) and then the cancellation poll.
	step := func() error {
		if err := faultinject.Hit(FaultSolve); err != nil {
			return err
		}
		return ctx.Err()
	}

	if opts.baselines {
		equalAlloc := partition.EqualAllocation(len(curves), opts.units)
		if err := step(); err != nil {
			return err
		}
		sol, err := partition.Evaluate(pr, equalAlloc)
		if err != nil {
			return err
		}
		show("Equal", sol)

		naturalAlloc := partition.Allocation(compose.NaturalPartitionUnits(comps, opts.units, opts.blocksPerUnit))
		if err := step(); err != nil {
			return err
		}
		sol, err = partition.Evaluate(pr, naturalAlloc)
		if err != nil {
			return err
		}
		show("Natural", sol)

		if err := step(); err != nil {
			return err
		}
		sol, err = partition.OptimizeBaseline(pr, equalAlloc)
		if err != nil {
			return err
		}
		show("Equal baseline", sol)

		if err := step(); err != nil {
			return err
		}
		sol, err = partition.OptimizeBaseline(pr, naturalAlloc)
		if err != nil {
			return err
		}
		show("Natural baseline", sol)
	}

	if err := step(); err != nil {
		return err
	}
	sol, err := partition.OptimizeContext(ctx, pr)
	if err != nil {
		return err
	}
	show("Optimal", sol)

	if opts.baselines {
		if err := step(); err != nil {
			return err
		}
		show("STTW", partition.STTW(curves, opts.units))
	}

	if opts.minimax {
		if err := step(); err != nil {
			return err
		}
		sol, err = partition.OptimizeContext(ctx, partition.Problem{Curves: curves, Units: opts.units, Combine: partition.Minimax})
		if err != nil {
			return err
		}
		show("Minimax", sol)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "optpart:", err)
	os.Exit(1)
}
