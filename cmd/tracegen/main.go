// Command tracegen generates synthetic memory-access traces to files,
// completing the CLI workflow: tracegen → hotlprof → optpart.
//
// Usage:
//
//	tracegen -pattern loop -size 4096 -n 1048576 -out loop.trace
//	tracegen -workload lbm -small -binary -out lbm.trace
//
// Patterns: stream (with -repeat), loop, sawtooth, zipf (with -theta),
// or any named synthetic workload via -workload.
package main

import (
	"flag"
	"fmt"
	"os"

	"partitionshare/internal/obs"
	"partitionshare/internal/trace"
	"partitionshare/internal/workload"
)

func main() {
	pattern := flag.String("pattern", "", "stream | loop | sawtooth | zipf")
	wl := flag.String("workload", "", "named synthetic workload (e.g. lbm); alternative to -pattern")
	size := flag.Uint("size", 4096, "working-set size in blocks (loop/sawtooth/zipf)")
	repeat := flag.Int("repeat", 1, "accesses per block (stream/loop)")
	theta := flag.Float64("theta", 1.0, "zipf exponent")
	n := flag.Int("n", 1<<20, "trace length in accesses")
	seed := flag.Uint64("seed", 1, "random seed")
	binaryFormat := flag.Bool("binary", false, "write the compact binary format")
	out := flag.String("out", "", "output path (required)")
	small := flag.Bool("small", false, "use the reduced geometry for -workload")
	flag.Parse()

	if *out == "" {
		fatal(fmt.Errorf("need -out PATH"))
	}
	if *n <= 0 {
		fatal(fmt.Errorf("invalid -n %d", *n))
	}

	var gen trace.Generator
	switch {
	case *pattern != "" && *wl != "":
		fatal(fmt.Errorf("use either -pattern or -workload, not both"))
	case *wl != "":
		cfg := workload.DefaultConfig()
		if *small {
			cfg = workload.TestConfig()
		}
		found := false
		for _, s := range workload.Specs() {
			if s.Name == *wl {
				gen = s.Build(uint32(cfg.CacheBlocks()), *seed)
				if !flagSet("n") {
					*n = cfg.TraceLen
				}
				found = true
				break
			}
		}
		if !found {
			fatal(fmt.Errorf("unknown workload %q", *wl))
		}
	case *pattern == "stream":
		gen = trace.NewStreaming(*repeat)
	case *pattern == "loop":
		gen = trace.NewLoop(uint32(*size), *repeat)
	case *pattern == "sawtooth":
		gen = trace.NewSawtooth(uint32(*size))
	case *pattern == "zipf":
		gen = trace.NewZipf(uint32(*size), *theta, *seed)
	default:
		fatal(fmt.Errorf("need -pattern or -workload"))
	}

	tr := trace.Generate(gen, *n)
	if err := trace.WriteFile(*out, tr, *binaryFormat); err != nil {
		fatal(err)
	}
	obs.Progressf("wrote %d accesses (%d distinct blocks) to %s\n", len(tr), tr.DistinctData(), *out)
}

func flagSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tracegen:", err)
	os.Exit(1)
}
