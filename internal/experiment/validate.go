package experiment

import (
	"context"
	"fmt"

	"partitionshare/internal/cachesim"
	"partitionshare/internal/compose"
	"partitionshare/internal/par"
	"partitionshare/internal/trace"
	"partitionshare/internal/workload"
)

// PairValidation is one program's predicted-vs-measured miss ratio in one
// co-run pair (§VII-C: the paper validates the natural partition
// assumption on all 190 pairs of 20 programs using hardware counters; here
// a shared-LRU simulation is the ground truth).
type PairValidation struct {
	Program   string
	Partner   string
	Predicted float64
	Measured  float64
}

// Err returns the absolute prediction error.
func (v PairValidation) Err() float64 {
	d := v.Predicted - v.Measured
	if d < 0 {
		return -d
	}
	return d
}

// ValidatePairs generates the suite's traces at the given geometry,
// predicts each pair's co-run miss ratios from solo profiles (Eq. 11), and
// measures them by simulating the shared cache on the rate-proportionally
// interleaved trace. Pairs are processed in parallel; cancelling ctx
// drains the workers and returns ctx.Err(), and a panic in one pair is
// returned as an error. The returned slice has two entries per pair (one
// per member), 2·C(len(specs),2) in total.
func ValidatePairs(ctx context.Context, specs []workload.Spec, cfg workload.Config) ([]PairValidation, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(specs) < 2 {
		return nil, fmt.Errorf("experiment: need at least 2 programs to validate pairs")
	}
	traces, fps, err := generateAll(ctx, specs, cfg)
	if err != nil {
		return nil, err
	}
	pairs, err := Combinations(len(specs), 2)
	if err != nil {
		return nil, err
	}
	out := make([]PairValidation, 2*len(pairs))
	capacity := int(cfg.CacheBlocks())
	errs := par.Do(ctx, len(pairs), 0, func(_, pi int) error {
		i, j := pairs[pi][0], pairs[pi][1]
		progs := []compose.Program{
			{Name: specs[i].Name, Fp: fps[i], Rate: specs[i].Rate},
			{Name: specs[j].Name, Fp: fps[j], Rate: specs[j].Rate},
		}
		pred := compose.SharedMissRatios(progs, float64(capacity))
		iv := trace.InterleaveProportional(
			[]trace.Trace{traces[i], traces[j]},
			[]float64{specs[i].Rate, specs[j].Rate}, cfg.TraceLen*2)
		sim := cachesim.SimulateShared(iv, capacity, cfg.TraceLen/2)
		for k := 0; k < 2; k++ {
			out[2*pi+k] = PairValidation{
				Program:   progs[k].Name,
				Partner:   progs[1-k].Name,
				Predicted: pred[k],
				Measured:  sim.MissRatio(k),
			}
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
	return out, nil
}

// ValidationSummary aggregates pair-validation errors.
type ValidationSummary struct {
	N          int
	MeanAbsErr float64
	MaxAbsErr  float64
	// WithinTol is the fraction of predictions within tol of the
	// measurement.
	WithinTol float64
}

// SummarizeValidation computes error statistics with the given absolute
// tolerance.
func SummarizeValidation(vs []PairValidation, tol float64) ValidationSummary {
	s := ValidationSummary{N: len(vs)}
	if len(vs) == 0 {
		return s
	}
	within := 0
	for _, v := range vs {
		e := v.Err()
		s.MeanAbsErr += e
		if e > s.MaxAbsErr {
			s.MaxAbsErr = e
		}
		if e <= tol {
			within++
		}
	}
	s.MeanAbsErr /= float64(len(vs))
	s.WithinTol = float64(within) / float64(len(vs))
	return s
}
