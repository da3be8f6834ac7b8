// Command experiments reproduces the paper's evaluation (§VII): it
// profiles the 16-program synthetic suite, evaluates all 1820 4-program
// co-run groups under the six allocation schemes, and regenerates Table I
// and Figures 5, 6, and 7 as ASCII charts plus CSV files.
//
// Usage:
//
//	experiments [-small] [-out DIR] [-groupsize N] [-validate]
//	            [-correlate] [-granularity] [-policy] [-epoch]
//
// SIGINT/SIGTERM trigger a graceful drain: in-flight groups finish, no
// CSV is written, and the process exits with status 130. Every CSV is
// held until the last requested stage finishes, so an interrupt during
// any stage, a study included, leaves none behind. The whole sweep
// takes well under a second at the paper's geometry, so an interrupted
// run is simply rerun.
//
// Observability: every run records a manifest (-manifest, default
// DIR/manifest.json) — config, build version, per-stage wall/CPU time,
// and the pipeline's counters (groups completed/failed, DP cells,
// cache-sim accesses) — written atomically on every exit path, including
// interruption. -debug-addr serves live Prometheus metrics and pprof;
// -cpuprofile/-memprofile/-trace capture profiles; -log-level/-log-json
// shape the structured diagnostic log on stderr.
//
// CSV outputs in DIR (default "results"):
//
//	table1.csv   — improvement of Optimal over the other five schemes
//	fig5_<p>.csv — per-program miss ratios across co-run groups
//	fig6.csv     — group miss ratio of five schemes, sorted by Optimal
//	fig7.csv     — Optimal vs STTW, sorted by Optimal
//	validate.csv — HOTL-predicted vs simulated miss ratios (with -validate)
//	correlation.csv — predicted group miss ratio and simulated co-run
//	               time per sampled group (with -correlate)
//	granularity.csv — units, blocks/unit and mean group miss ratio per
//	               granularity (with -granularity)
//	policy.csv   — one column per program/capacity; rows LRU, CLOCK,
//	               random and HOTL miss ratios (with -policy)
//	epoch.csv    — one column per phased group; rows static MR, dynamic
//	               MR and the dynamic gain (with -epoch)
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"partitionshare/internal/atomicio"
	"partitionshare/internal/experiment"
	"partitionshare/internal/obs"
	"partitionshare/internal/textplot"
	"partitionshare/internal/workload"
)

// finish runs the shutdown sequence — stop profiles, write the heap
// profile, flush the manifest, close the debug server — exactly once.
// Installed by main; fatal routes through it so no exit path skips the
// manifest.
var finish = func() {}

func main() {
	small := flag.Bool("small", false, "use the reduced test geometry")
	outDir := flag.String("out", "results", "directory for CSV outputs")
	groupSize := flag.Int("groupsize", 4, "programs per co-run group")
	validate := flag.Bool("validate", false, "also run the pair-prediction validation (slow)")
	correlate := flag.Bool("correlate", false, "also run the locality-performance correlation study (slow)")
	granularity := flag.Bool("granularity", false, "also run the partition-granularity ablation")
	policy := flag.Bool("policy", false, "also run the replacement-policy study (slow)")
	epochFlag := flag.Bool("epoch", false, "also run the dynamic-vs-static repartitioning study on the phased suite")
	workers := flag.Int("workers", 0, "worker goroutines for the group sweep (0 = GOMAXPROCS)")
	failFast := flag.Bool("failfast", false, "abort the sweep on the first group error instead of collecting errors")
	debugAddr := flag.String("debug-addr", "", "serve Prometheus metrics and pprof on this address (e.g. localhost:6060)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file at exit")
	traceOut := flag.String("trace", "", "write a runtime execution trace to this file")
	traceEvents := flag.String("trace-events", "", "write a Chrome trace_event JSON timeline to this file (view in Perfetto)")
	manifestPath := flag.String("manifest", "", "run-manifest path (default <out>/manifest.json; \"none\" disables)")
	logLevel := flag.String("log-level", "info", "diagnostic log level: debug|info|warn|error")
	logJSON := flag.Bool("log-json", false, "emit the diagnostic log as JSON instead of text")
	flag.Parse()

	level, err := obs.ParseLogLevel(*logLevel)
	if err != nil {
		fatal(err)
	}
	obs.InitLogging(os.Stderr, level, *logJSON)
	obs.Enable(obs.NewRegistry())

	// SIGINT/SIGTERM cancel ctx; every stage below drains gracefully and
	// returns context.Canceled, which exits with the conventional 130.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	cfg := workload.DefaultConfig()
	if *small {
		cfg = workload.TestConfig()
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatal(err)
	}
	if *manifestPath == "" {
		*manifestPath = filepath.Join(*outDir, "manifest.json")
	}

	manifest := obs.NewManifest("experiments", map[string]any{
		"small":           *small,
		"groupsize":       *groupSize,
		"units":           cfg.Units,
		"blocks_per_unit": cfg.BlocksPerUnit,
		"trace_len":       cfg.TraceLen,
		"workers":         *workers,
		"validate":        *validate,
		"correlate":       *correlate,
		"granularity":     *granularity,
		"policy":          *policy,
		"epoch":           *epochFlag,
	})

	srv, err := obs.StartDebugServer(ctx, *debugAddr)
	if err != nil {
		fatal(err)
	}
	var tracer *obs.Tracer
	if *traceEvents != "" {
		tw, err := obs.StartTraceEvents(*traceEvents)
		if err != nil {
			fatal(err)
		}
		tracer = obs.NewTracer(0, tw)
		obs.EnableTracer(tracer)
	}
	stopCPU := func() error { return nil }
	if *cpuProfile != "" {
		if stopCPU, err = obs.StartCPUProfile(*cpuProfile); err != nil {
			fatal(err)
		}
	}
	stopTrace := func() error { return nil }
	if *traceOut != "" {
		if stopTrace, err = obs.StartTrace(*traceOut); err != nil {
			fatal(err)
		}
	}
	var finishOnce sync.Once
	finish = func() {
		finishOnce.Do(func() {
			if err := stopCPU(); err != nil {
				obs.Logger().Error("cpu profile", "err", err)
			}
			if err := stopTrace(); err != nil {
				obs.Logger().Error("execution trace", "err", err)
			}
			if *memProfile != "" {
				if err := obs.WriteHeapProfile(*memProfile); err != nil {
					obs.Logger().Error("heap profile", "err", err)
				}
			}
			if err := tracer.Close(); err != nil {
				obs.Logger().Error("trace events", "err", err)
			}
			obs.EnableTracer(nil)
			srv.Close()
			if *manifestPath != "none" {
				m := manifest.Build(obs.Enabled())
				if err := m.Write(*manifestPath); err != nil {
					obs.Logger().Error("manifest write", "err", err)
				} else {
					obs.Logger().Info("manifest written", "path", *manifestPath,
						"wall_ns", m.Meta.WallNS, "cpu_ns", m.Meta.CPUNS)
				}
			}
		})
	}
	defer finish()

	start := time.Now()
	obs.Progressf("profiling %d programs (units=%d, blocks/unit=%d, trace=%d)...\n",
		len(workload.Specs()), cfg.Units, cfg.BlocksPerUnit, cfg.TraceLen)
	profileCtx, profileSpan := obs.Start(ctx, "profile", obs.CatStage)
	progs, err := workload.ProfileAll(profileCtx, workload.Specs(), cfg)
	// End the stage before any exit, so an interrupted run's manifest
	// still records the stage it was in.
	profileSpan.End()
	if err != nil {
		fatal(err)
	}
	obs.Progressf("profiled in %v\n", time.Since(start).Round(time.Millisecond))

	opts := experiment.RunOpts{
		Workers:    *workers,
		FailFast:   *failFast,
		OnProgress: sweepProgress(),
	}

	start = time.Now()
	sweepCtx, sweepSpan := obs.Start(ctx, "sweep", obs.CatStage)
	res, err := experiment.Run(sweepCtx, progs, *groupSize, cfg.Units, cfg.BlocksPerUnit, opts)
	sweepSpan.End()
	if err != nil {
		fatal(err)
	}
	took := time.Since(start)
	obs.Progressf("evaluated %d co-run groups x 6 schemes in %v (%.0f µs/group)\n\n",
		len(res.Groups), took.Round(time.Millisecond),
		float64(took.Microseconds())/float64(len(res.Groups)))

	_, reportsSpan := obs.Start(ctx, "reports", obs.CatStage)

	// ---- Table I ----
	rows := experiment.TableI(res)
	obs.Progressln("Table I: improvement of group performance by Optimal")
	obs.Progressf("%s", experiment.FormatTableI(rows))
	tableSeries := []textplot.Series{}
	for _, r := range rows {
		tableSeries = append(tableSeries, textplot.Series{
			Name:   r.Baseline.String(),
			Values: []float64{r.Max, r.Avg, r.Median, r.AtLeast10, r.AtLeast20},
		})
	}
	holdCSV("table1.csv", tableSeries)

	// ---- Figure 6: five schemes sorted by Optimal ----
	schemes := []experiment.Scheme{experiment.Natural, experiment.Equal,
		experiment.NaturalBaseline, experiment.EqualBaseline, experiment.Optimal}
	g6 := experiment.GroupSeries(res, schemes)
	var fig6 []textplot.Series
	for _, s := range schemes {
		fig6 = append(fig6, textplot.Series{Name: s.String(), Values: g6[s]})
	}
	holdCSV("fig6.csv", fig6)
	obs.Progressln(textplot.Chart{
		Title:  "Figure 6: group miss ratio of the five partitioning methods (sorted by Optimal)",
		Series: fig6,
	}.Render())

	// ---- Figure 7: Optimal vs STTW ----
	g7 := experiment.GroupSeries(res, []experiment.Scheme{experiment.STTW, experiment.Optimal})
	fig7 := []textplot.Series{
		{Name: "Stone-Thiebaut-Turek-Wolf", Values: g7[experiment.STTW]},
		{Name: "Optimal", Values: g7[experiment.Optimal]},
	}
	holdCSV("fig7.csv", fig7)
	obs.Progressln(textplot.Chart{
		Title:  "Figure 7: group miss ratio of Optimal and STTW (sorted by Optimal)",
		Series: fig7,
	}.Render())

	// ---- Figure 5: per-program miss ratios ----
	fig5Schemes := []experiment.Scheme{experiment.Natural, experiment.Equal,
		experiment.NaturalBaseline, experiment.EqualBaseline, experiment.Optimal}
	obs.Progressln("Figure 5: per-program miss ratio across co-run groups")
	obs.Progressf("%-10s %9s %9s %9s %9s %9s   %s\n",
		"program", "equal", "nat(avg)", "natbase", "eqbase", "opt(avg)", "gain/tie/loss vs equal")
	for i, p := range res.Programs {
		series := experiment.ProgramSeries(res, i, fig5Schemes)
		var out []textplot.Series
		for _, s := range fig5Schemes {
			out = append(out, textplot.Series{Name: s.String(), Values: series[s]})
		}
		holdCSV(fmt.Sprintf("fig5_%s.csv", p.Name), out)
		gain, tie, loss := experiment.GainLoss(res, i, 0.02)
		obs.Progressf("%-10s %9.5f %9.5f %9.5f %9.5f %9.5f   %d/%d/%d\n",
			p.Name,
			series[experiment.Equal][0],
			mean(series[experiment.Natural]),
			mean(series[experiment.NaturalBaseline]),
			mean(series[experiment.EqualBaseline]),
			mean(series[experiment.Optimal]),
			gain, tie, loss)
	}

	// ---- Unfairness of Optimal (§VII-B) ----
	obs.Progressln("\nUnfairness of Optimal (groups where Optimal makes the program worse):")
	obs.Progressf("%-10s %18s %18s\n", "program", "vs Natural", "vs Equal")
	for i, p := range res.Programs {
		wn, tn := experiment.UnfairnessCount(res, i, experiment.Natural)
		we, te := experiment.UnfairnessCount(res, i, experiment.Equal)
		obs.Progressf("%-10s %11d/%d %11d/%d\n", p.Name, wn, tn, we, te)
	}
	reportsSpan.End()

	// Each study runs under its stage span, ended before any exit so an
	// interrupted run's manifest still records the stage it was in.
	study := func(on bool, name string, run func(context.Context) error) {
		if !on {
			return
		}
		sctx, span := obs.Start(ctx, name, obs.CatStage)
		err := run(sctx)
		span.End()
		if err != nil {
			fatal(err)
		}
	}
	study(*validate, "validate", func(c context.Context) error { return runValidation(c, cfg) })
	study(*correlate, "correlate", func(c context.Context) error { return runCorrelation(c, cfg) })
	study(*granularity, "granularity", func(context.Context) error { return runGranularity(res.Programs, cfg) })
	study(*policy, "policy", func(c context.Context) error { return runPolicy(c, cfg) })
	study(*epochFlag, "epoch", func(c context.Context) error { return runEpochStudy(c, cfg) })

	// Every requested stage has finished. A stage that does not watch ctx
	// may have run to its end through an interrupt; the run still counts
	// as interrupted and writes nothing.
	if err := ctx.Err(); err != nil {
		fatal(err)
	}
	for _, c := range heldCSVs {
		writeCSV(*outDir, c.name, c.series)
	}
}

// sweepProgress returns the Run OnProgress callback: it reports sweep
// completion through the serialized progress reporter once per 10% step,
// so concurrent workers produce a handful of whole lines rather than
// thousands of interleaved fragments.
func sweepProgress() func(processed, total int) {
	var lastDecile atomic.Int64
	lastDecile.Store(-1)
	return func(processed, total int) {
		if total == 0 {
			return
		}
		decile := int64(processed * 10 / total)
		for {
			last := lastDecile.Load()
			if decile <= last {
				return
			}
			if lastDecile.CompareAndSwap(last, decile) {
				obs.Progressf("sweep: %d/%d groups (%d%%)\n", processed, total, decile*10)
				return
			}
		}
	}
}

// runEpochStudy prints the dynamic-vs-static repartitioning comparison on
// the phased (antiphase) suite — the §VIII random-phase caveat — and
// holds epoch.csv.
func runEpochStudy(ctx context.Context, cfg workload.Config) error {
	ecfg := cfg
	if ecfg.TraceLen > 1<<21 {
		ecfg.TraceLen = 1 << 21
	}
	specs := workload.PhasedSpecs()
	phaseLen := ecfg.TraceLen / 8
	groups := [][]int{{0, 1}, {2, 3}, {4, 5}, {6, 7}, {0, 1, 2, 3}, {4, 5, 6, 7}, {0, 3, 4, 7}}
	rows, err := experiment.EpochStudy(ctx, specs, ecfg, groups, phaseLen)
	if err != nil {
		return err
	}
	obs.Progressf("\nDynamic vs static repartitioning on the phased suite (§VIII caveat):\n")
	obs.Progressf("%-40s %12s %12s %9s\n", "group", "static MR", "dynamic MR", "gain")
	var out []textplot.Series
	for _, r := range rows {
		obs.Progressf("%-40s %12.5f %12.5f %8.1f%%\n",
			fmt.Sprint(r.Members), r.StaticMR, r.DynamicMR, 100*r.Gain())
		out = append(out, textplot.Series{
			Name:   strings.Join(r.Members, "+"),
			Values: []float64{r.StaticMR, r.DynamicMR, r.Gain()},
		})
	}
	holdCSV("epoch.csv", out)
	return nil
}

// runCorrelation reproduces the §VIII locality-performance correlation:
// predicted miss ratio vs simulated co-run time over sampled groups.
func runCorrelation(ctx context.Context, cfg workload.Config) error {
	ccfg := cfg
	if ccfg.TraceLen > 1<<20 {
		ccfg.TraceLen = 1 << 20
	}
	specs := workload.Specs()
	all, err := experiment.Combinations(len(specs), 4)
	if err != nil {
		return err
	}
	var sample [][]int
	for i := 0; i < len(all); i += 18 { // ~100 groups
		sample = append(sample, all[i])
	}
	start := time.Now()
	res, err := experiment.CorrelationStudy(ctx, specs, ccfg, sample, 100)
	if err != nil {
		return err
	}
	obs.Progressf("\nLocality-performance correlation (§VIII): %d groups simulated in %v\n",
		len(sample), time.Since(start).Round(time.Millisecond))
	obs.Progressf("Pearson r(predicted miss ratio, simulated time) = %.3f (paper: 0.938)\n", res.Pearson)
	holdCSV("correlation.csv", []textplot.Series{
		{Name: "predicted_mr", Values: res.Predicted},
		{Name: "simulated_time", Values: res.SimulatedTime},
	})
	return nil
}

// runGranularity prints the §VII-A granularity ablation and holds
// granularity.csv. The DP time is printed only: wall time is not
// reproducible, so it stays out of the pinned CSV.
func runGranularity(progs []workload.Program, cfg workload.Config) error {
	groups, err := experiment.Combinations(len(progs), 4)
	if err != nil {
		return err
	}
	var sample [][]int
	for i := 0; i < len(groups); i += 36 { // ~50 groups
		sample = append(sample, groups[i])
	}
	counts := []int{cfg.Units, cfg.Units / 4, cfg.Units / 16, cfg.Units / 64}
	pts, err := experiment.GranularityStudy(progs, cfg, sample, counts)
	if err != nil {
		return err
	}
	obs.Progressf("\nGranularity ablation (§VII-A), %d sampled groups:\n", len(sample))
	obs.Progressf("%8s %14s %14s %14s\n", "units", "blocks/unit", "mean groupMR", "DP time")
	units := textplot.Series{Name: "units"}
	bpu := textplot.Series{Name: "blocks_per_unit"}
	mr := textplot.Series{Name: "mean_group_mr"}
	for _, p := range pts {
		obs.Progressf("%8d %14d %14.5f %14v\n", p.Units, p.BlocksPerUnit, p.MeanGroupMR, p.MeanSolveTime.Round(time.Microsecond))
		units.Values = append(units.Values, float64(p.Units))
		bpu.Values = append(bpu.Values, float64(p.BlocksPerUnit))
		mr.Values = append(mr.Values, p.MeanGroupMR)
	}
	holdCSV("granularity.csv", []textplot.Series{units, bpu, mr})
	return nil
}

// runPolicy prints the §VIII replacement-policy comparison and holds
// policy.csv.
func runPolicy(ctx context.Context, cfg workload.Config) error {
	pcfg := cfg
	if pcfg.TraceLen > 1<<21 {
		pcfg.TraceLen = 1 << 21
	}
	specs := workload.Specs()[:8]
	caps := []int{int(pcfg.CacheBlocks()) / 4, int(pcfg.CacheBlocks())}
	rows, err := experiment.PolicyStudy(ctx, specs, pcfg, caps)
	if err != nil {
		return err
	}
	obs.Progressf("\nReplacement-policy study (§VIII): simulated miss ratios vs the HOTL (LRU) model\n")
	obs.Progressf("%-10s %10s %9s %9s %9s %9s\n", "program", "capacity", "LRU", "CLOCK", "random", "HOTL")
	var out []textplot.Series
	for _, r := range rows {
		obs.Progressf("%-10s %10d %9.5f %9.5f %9.5f %9.5f\n", r.Program, r.Capacity, r.LRU, r.Clock, r.Random, r.HOTL)
		out = append(out, textplot.Series{
			Name:   fmt.Sprintf("%s/%d", r.Program, r.Capacity),
			Values: []float64{r.LRU, r.Clock, r.Random, r.HOTL},
		})
	}
	holdCSV("policy.csv", out)
	return nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// heldCSVs are the run's CSV outputs, in the order they were produced,
// held until the last requested stage finishes.
var heldCSVs []heldCSV

type heldCSV struct {
	name   string
	series []textplot.Series
}

// holdCSV queues one CSV output for the end of the run.
func holdCSV(name string, series []textplot.Series) {
	heldCSVs = append(heldCSVs, heldCSV{name, series})
}

// writeCSV writes one CSV output atomically, so a kill mid-run never
// leaves a truncated results file.
func writeCSV(dir, name string, series []textplot.Series) {
	err := atomicio.WriteFile(filepath.Join(dir, name), func(w io.Writer) error {
		return textplot.WriteCSV(w, series)
	})
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	finish()
	if errors.Is(err, context.Canceled) {
		fmt.Fprintln(os.Stderr, "experiments: interrupted")
		os.Exit(130)
	}
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}
