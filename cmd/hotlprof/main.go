// Command hotlprof profiles a memory-access trace into a HOTL locality
// profile file — the equivalent of the paper's full-trace footprint
// analysis (§VII-A). The profile stores the reuse-time and boundary
// histograms, from which the average footprint, fill time, and miss-ratio
// curve are derived exactly (§III).
//
// Input is either a trace file (-in; text with one decimal ID per line,
// or the binary delta-varint format, auto-detected; "-" reads text from
// stdin) or a named synthetic workload (-workload, see internal/
// workload). Output (-out) is the ASCII profile format of
// internal/profileio. With -mrc set, the miss-ratio curve is also printed.
//
// Observability mirrors cmd/experiments: -manifest records the run
// (config, stage timings, reuse-scan counters), -debug-addr serves live
// Prometheus metrics and pprof, -cpuprofile/-memprofile/-trace capture
// profiles, -log-level/-log-json shape the stderr diagnostic log.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sync"
	"syscall"

	"partitionshare/internal/footprint"
	"partitionshare/internal/obs"
	"partitionshare/internal/profileio"
	"partitionshare/internal/reuse"
	"partitionshare/internal/trace"
	"partitionshare/internal/workload"
)

// Observability names, prefixed with this command's package base per
// the obsname registry convention.
const (
	mTraceAccesses  = "hotlprof.trace_accesses"
	mDistinctBlocks = "hotlprof.distinct_blocks"
)

// finish runs the shutdown sequence (profiles, manifest, debug server)
// exactly once; fatal routes through it.
var finish = func() {}

func main() {
	in := flag.String("in", "", "trace file: one decimal datum ID per line (\"-\" = stdin)")
	wl := flag.String("workload", "", "synthetic workload name (e.g. lbm); alternative to -in")
	out := flag.String("out", "", "output profile path (default <name>.hotl)")
	name := flag.String("name", "", "program name recorded in the profile")
	rate := flag.Float64("rate", 1.0, "relative access rate recorded in the profile")
	mrcFlag := flag.Bool("mrc", false, "also print the miss-ratio curve")
	units := flag.Int("units", 1024, "cache units for -mrc")
	blocksPerUnit := flag.Int64("blocksperunit", 4, "blocks per unit for -mrc")
	small := flag.Bool("small", false, "use the reduced test geometry for -workload")
	workers := flag.Int("workers", 0, "profiling shards: 0 = all CPUs, 1 = serial scan")
	debugAddr := flag.String("debug-addr", "", "serve Prometheus metrics and pprof on this address")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file at exit")
	traceOut := flag.String("trace", "", "write a runtime execution trace to this file")
	traceEvents := flag.String("trace-events", "", "write a Chrome trace_event JSON timeline to this file (view in Perfetto)")
	manifestPath := flag.String("manifest", "", "run-manifest path (empty disables)")
	logLevel := flag.String("log-level", "info", "diagnostic log level: debug|info|warn|error")
	logJSON := flag.Bool("log-json", false, "emit the diagnostic log as JSON instead of text")
	flag.Parse()

	level, err := obs.ParseLogLevel(*logLevel)
	if err != nil {
		fatal(err)
	}
	obs.InitLogging(os.Stderr, level, *logJSON)
	obs.Enable(obs.NewRegistry())

	// SIGINT/SIGTERM cancel the profiling scan; the shards drain and the
	// process exits without writing a partial profile.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	manifest := obs.NewManifest("hotlprof", map[string]any{
		"in":       *in,
		"workload": *wl,
		"small":    *small,
		"workers":  *workers,
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
			if *manifestPath != "" {
				if err := manifest.Build(obs.Enabled()).Write(*manifestPath); err != nil {
					obs.Logger().Error("manifest write", "err", err)
				}
			}
		})
	}
	defer finish()

	_, readSpan := obs.Start(ctx, "read", obs.CatStage)
	var tr trace.Trace
	switch {
	case *in != "" && *wl != "":
		fatal(fmt.Errorf("use either -in or -workload, not both"))
	case *in == "-":
		tr, err = trace.ReadText(os.Stdin)
		if err != nil {
			fatal(err)
		}
		if len(tr) == 0 {
			fatal(fmt.Errorf("stdin: empty trace"))
		}
		if *name == "" {
			*name = "trace"
		}
	case *in != "":
		tr, err = trace.ReadFile(*in)
		if err != nil {
			fatal(err)
		}
		if len(tr) == 0 {
			fatal(fmt.Errorf("%s: empty trace", *in))
		}
		if *name == "" {
			*name = "trace"
		}
	case *wl != "":
		cfg := workload.DefaultConfig()
		if *small {
			cfg = workload.TestConfig()
		}
		spec, ok := findSpec(*wl)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *wl))
		}
		gen := spec.Build(uint32(cfg.CacheBlocks()), cfg.Seed)
		tr = trace.Generate(gen, cfg.TraceLen)
		if *name == "" {
			*name = spec.Name
		}
		if *rate == 1.0 {
			*rate = spec.Rate
		}
	default:
		fatal(fmt.Errorf("need -in FILE or -workload NAME"))
	}
	readSpan.End()

	collectCtx, collectSpan := obs.Start(ctx, "collect", obs.CatStage)
	rp, err := reuse.CollectParallel(collectCtx, tr, *workers)
	if err != nil {
		fatal(err)
	}
	collectSpan.End()

	_, writeSpan := obs.Start(ctx, "write", obs.CatStage)
	prof := profileio.Profile{Name: *name, Rate: *rate, Reuse: rp}
	path := *out
	if path == "" {
		path = *name + ".hotl"
	}
	if err := profileio.WriteFile(path, prof); err != nil {
		fatal(err)
	}
	writeSpan.End()
	if reg := obs.Enabled(); reg != nil {
		reg.Counter(mTraceAccesses).Add(prof.Reuse.N)
		reg.Counter(mDistinctBlocks).Add(prof.Reuse.M)
	}
	obs.Progressf("profiled %d accesses, %d distinct blocks -> %s\n",
		prof.Reuse.N, prof.Reuse.M, path)

	if *mrcFlag {
		fp := footprint.New(prof.Reuse)
		obs.Progressf("units miss_ratio\n")
		for u := 0; u <= *units; u += max(1, *units/64) {
			obs.Progressf("%5d %.6f\n", u, fp.MissRatio(float64(int64(u)**blocksPerUnit)))
		}
	}
}

func findSpec(name string) (workload.Spec, bool) {
	for _, s := range workload.Specs() {
		if s.Name == name {
			return s, true
		}
	}
	return workload.Spec{}, false
}

func fatal(err error) {
	finish()
	if errors.Is(err, context.Canceled) {
		fmt.Fprintln(os.Stderr, "hotlprof: interrupted")
		os.Exit(130)
	}
	fmt.Fprintln(os.Stderr, "hotlprof:", err)
	os.Exit(1)
}
