package main

import (
	"context"
	"time"

	"partitionshare/internal/experiment"
	"partitionshare/internal/obs"
	"partitionshare/internal/textplot"
	"partitionshare/internal/workload"
)

// runValidation reproduces the §VII-C validation: for all program pairs,
// the HOTL-predicted co-run miss ratios are compared against a shared-LRU
// simulation (standing in for the paper's hardware counters). It prints
// the error distribution and holds validate.csv.
func runValidation(ctx context.Context, cfg workload.Config) error {
	// Validation re-generates and simulates traces; cap the scale.
	vcfg := cfg
	if vcfg.TraceLen > 1<<20 {
		vcfg.TraceLen = 1 << 20
	}
	specs := workload.Specs()
	nPairs, err := experiment.CombinationCount(len(specs), 2)
	if err != nil {
		return err
	}
	obs.Progressf("\nValidation (§VII-C): HOTL prediction vs shared-LRU simulation, %d pairs\n", nPairs)
	start := time.Now()
	vs, err := experiment.ValidatePairs(ctx, specs, vcfg)
	if err != nil {
		return err
	}
	sum := experiment.SummarizeValidation(vs, 0.01)
	obs.Progressf("predicted %d miss ratios in %v: mean |err| = %.4f, max |err| = %.4f, %.1f%% within 0.01\n",
		sum.N, time.Since(start).Round(time.Millisecond),
		sum.MeanAbsErr, sum.MaxAbsErr, 100*sum.WithinTol)

	pred := textplot.Series{Name: "predicted"}
	meas := textplot.Series{Name: "measured"}
	for _, v := range vs {
		pred.Values = append(pred.Values, v.Predicted)
		meas.Values = append(meas.Values, v.Measured)
	}
	holdCSV("validate.csv", []textplot.Series{pred, meas})
	return nil
}
