package experiment

import (
	"context"
	"fmt"
	"time"

	"partitionshare/internal/cachesim"
	"partitionshare/internal/compose"
	"partitionshare/internal/footprint"
	"partitionshare/internal/mrc"
	"partitionshare/internal/par"
	"partitionshare/internal/partition"
	"partitionshare/internal/stats"
	"partitionshare/internal/trace"
	"partitionshare/internal/workload"
)

// CorrelationResult reports the locality-performance correlation study.
type CorrelationResult struct {
	// Predicted[g] is group g's HOTL-predicted shared-cache miss ratio.
	Predicted []float64
	// SimulatedTime[g] is the group's simulated co-run execution time in
	// cycles: one cycle per access plus missPenalty per simulated miss.
	SimulatedTime []float64
	// Pearson is the correlation coefficient between the two.
	Pearson float64
}

// CorrelationStudy reproduces the §VIII "Locality-performance
// Correlation" argument (Wang et al. measured r = 0.938 between predicted
// miss ratio and execution time over all 1820 groups): for each given
// group, the co-run is simulated on a shared LRU cache and its execution
// time modelled as accesses + missPenalty·misses, then correlated with
// the composition-predicted miss ratio. Groups are simulated in parallel;
// cancelling ctx drains the workers and returns ctx.Err(), and a panic in
// one group is returned as an error.
func CorrelationStudy(ctx context.Context, specs []workload.Spec, cfg workload.Config, groups [][]int, missPenalty float64) (CorrelationResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(groups) < 2 {
		return CorrelationResult{}, fmt.Errorf("experiment: need at least 2 groups to correlate")
	}
	if missPenalty <= 0 {
		return CorrelationResult{}, fmt.Errorf("experiment: non-positive miss penalty %v", missPenalty)
	}
	traces, fps, err := generateAll(ctx, specs, cfg)
	if err != nil {
		return CorrelationResult{}, err
	}
	res := CorrelationResult{
		Predicted:     make([]float64, len(groups)),
		SimulatedTime: make([]float64, len(groups)),
	}
	capacity := int(cfg.CacheBlocks())
	errs := par.Do(ctx, len(groups), 0, func(_, g int) error {
		members := groups[g]
		progs := make([]compose.Program, 0, len(members))
		subTraces := make([]trace.Trace, 0, len(members))
		rates := make([]float64, 0, len(members))
		for _, m := range members {
			if m < 0 || m >= len(specs) {
				return fmt.Errorf("experiment: invalid member %d", m)
			}
			progs = append(progs, compose.Program{Name: specs[m].Name, Fp: fps[m], Rate: specs[m].Rate})
			subTraces = append(subTraces, traces[m])
			rates = append(rates, specs[m].Rate)
		}
		res.Predicted[g] = compose.SharedGroupMissRatio(progs, float64(capacity))
		iv := trace.InterleaveProportional(subTraces, rates, cfg.TraceLen)
		sim := cachesim.SimulateShared(iv, capacity, cfg.TraceLen/4)
		var misses, accesses int64
		for p := range sim.Misses {
			misses += sim.Misses[p]
			accesses += sim.Accesses[p]
		}
		res.SimulatedTime[g] = float64(accesses) + missPenalty*float64(misses)
		return nil
	})
	if err := ctx.Err(); err != nil {
		return CorrelationResult{}, err
	}
	for _, err := range errs {
		if err != nil {
			return CorrelationResult{}, err
		}
	}
	res.Pearson = stats.Pearson(res.Predicted, res.SimulatedTime)
	return res, nil
}

// GranularityPoint is one row of the granularity ablation.
type GranularityPoint struct {
	Units         int
	BlocksPerUnit int64
	// MeanGroupMR is the mean group miss ratio over the sampled groups
	// when the partition is optimized at this granularity but evaluated
	// at the finest one.
	MeanGroupMR float64
	// MeanSolveTime is the average wall time of one DP solve.
	MeanSolveTime time.Duration
}

// GranularityStudy quantifies the paper's §VII-A cost/quality lever: the
// DP is O(P·C²) in the unit count, and the paper picked 8 KB units to
// keep it cheap. For each granularity, each sampled group is optimized at
// that granularity and the resulting allocation is scored on the
// finest-granularity curves. unitCounts must each divide the finest
// count, which must equal cfg.Units.
func GranularityStudy(progs []workload.Program, cfg workload.Config, groups [][]int, unitCounts []int) ([]GranularityPoint, error) {
	if len(groups) == 0 || len(unitCounts) == 0 {
		return nil, fmt.Errorf("experiment: empty granularity study")
	}
	fine := cfg.Units
	var out []GranularityPoint
	for _, units := range unitCounts {
		if units <= 0 || fine%units != 0 {
			return nil, fmt.Errorf("experiment: unit count %d does not divide %d", units, fine)
		}
		factor := fine / units
		blocksPerUnit := cfg.BlocksPerUnit * int64(factor)
		pt := GranularityPoint{Units: units, BlocksPerUnit: blocksPerUnit}
		var totalMR float64
		var totalSolve time.Duration
		for _, members := range groups {
			coarse := make([]mrc.Curve, len(members))
			finest := make([]mrc.Curve, len(members))
			for i, m := range members {
				if m < 0 || m >= len(progs) {
					return nil, fmt.Errorf("experiment: invalid member %d", m)
				}
				coarse[i] = mrc.FromFootprint(progs[m].Name, progs[m].Fp, units, blocksPerUnit, progs[m].Rate)
				coarse[i].Accesses = progs[m].Curve.Accesses
				finest[i] = progs[m].Curve
			}
			start := time.Now()
			sol, err := partition.Optimize(partition.Problem{Curves: coarse, Units: units})
			if err != nil {
				return nil, err
			}
			totalSolve += time.Since(start)
			// Scale the coarse allocation to fine units and score it on
			// the finest curves.
			fineAlloc := make(partition.Allocation, len(sol.Alloc))
			for i, u := range sol.Alloc {
				fineAlloc[i] = u * factor
			}
			totalMR += mrc.GroupMissRatio(finest, fineAlloc)
		}
		pt.MeanGroupMR = totalMR / float64(len(groups))
		pt.MeanSolveTime = totalSolve / time.Duration(len(groups))
		out = append(out, pt)
	}
	return out, nil
}

// generate builds spec i's trace at cfg's geometry and profiles its
// footprint. The seed mixes cfg.Seed with the spec's index, so a study's
// traces are fixed by its configuration and its spec order.
func generate(s workload.Spec, i int, cfg workload.Config) (trace.Trace, footprint.Footprint) {
	tr := trace.Generate(s.Build(uint32(cfg.CacheBlocks()), cfg.Seed*0x9e3779b9^uint64(i)), cfg.TraceLen)
	return tr, footprint.FromTrace(tr)
}

// generateAll runs generate for every spec on the worker pool. Cancelling
// ctx returns ctx.Err(); a panicking spec returns its error.
func generateAll(ctx context.Context, specs []workload.Spec, cfg workload.Config) ([]trace.Trace, []footprint.Footprint, error) {
	traces := make([]trace.Trace, len(specs))
	fps := make([]footprint.Footprint, len(specs))
	errs := par.Do(ctx, len(specs), 0, func(_, i int) error {
		traces[i], fps[i] = generate(specs[i], i, cfg)
		return nil
	})
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}
	return traces, fps, nil
}

// PolicyRow is one program × capacity row of the replacement-policy study.
type PolicyRow struct {
	Program  string
	Capacity int
	LRU      float64 // simulated LRU miss ratio (ground truth for HOTL)
	Clock    float64 // simulated CLOCK miss ratio
	Random   float64 // simulated random-replacement miss ratio
	HOTL     float64 // model-predicted miss ratio
}

// PolicyStudy quantifies the §VIII replacement-policy assumption: the
// HOTL model targets exact LRU; CLOCK approximates it and random
// replacement departs from it (mildly on smooth workloads, strongly on
// thrashing loops). Each spec's trace is run through all three simulators
// at each capacity. The rows come in spec order, and within a spec in
// capacity order. Cancelling ctx drains the workers and returns
// ctx.Err(), and a panic in one spec's simulation is returned as an error.
func PolicyStudy(ctx context.Context, specs []workload.Spec, cfg workload.Config, capacities []int) ([]PolicyRow, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(specs) == 0 || len(capacities) == 0 {
		return nil, fmt.Errorf("experiment: empty policy study")
	}
	// Each row has its own slot, spec-major and capacity-minor, so the
	// order never depends on which worker finishes first.
	rows := make([]PolicyRow, len(specs)*len(capacities))
	// Each job generates its own spec's trace rather than generateAll's
	// whole set, so at most one trace per worker is live at a time.
	errs := par.Do(ctx, len(specs), 0, func(_, i int) error {
		tr, fp := generate(specs[i], i, cfg)
		n := float64(len(tr))
		for k, c := range capacities {
			if ctx.Err() != nil {
				return nil
			}
			row := PolicyRow{Program: specs[i].Name, Capacity: c}
			row.LRU = float64(cachesim.NewLRU(c).Run(tr)) / n
			row.Clock = float64(cachesim.RunPolicy(cachesim.NewClock(c), tr)) / n
			row.Random = float64(cachesim.RunPolicy(cachesim.NewRandom(c, 7), tr)) / n
			row.HOTL = fp.MissRatio(float64(c))
			rows[i*len(capacities)+k] = row
		}
		return nil
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return rows, nil
}
