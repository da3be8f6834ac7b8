// Package workload defines the 16 synthetic programs standing in for the
// paper's 16 SPEC CPU2006 benchmarks (§VII-A). SPEC traces are proprietary;
// each stand-in keeps the original's name and is calibrated to reproduce
// the qualitative behaviour Figure 5 reports for it:
//
//   - the spread and ordering of equal-partition miss ratios, with
//     lbm/sphinx3 at the top and sjeng/namd at the bottom;
//   - gainers vs losers under free-for-all sharing: high-access-rate
//     programs (lbm, sphinx3, and the low-miss hmmer/tonto) naturally
//     occupy more than an equal share and gain, while low-rate programs
//     (perlbench, sjeng, namd, povray) get squeezed and lose;
//   - non-convex miss-ratio curves: several programs have working-set
//     cliffs (cyclic loops) at different fractions of the cache, which is
//     what defeats the STTW convexity assumption in ~1/3 of groups.
//
// Program working sets are expressed as fractions of the cache size, so
// one Config scales the whole suite: tests run a small geometry, the
// experiment harness runs the paper's 1024-unit cache.
package workload

import (
	"context"
	"fmt"

	"partitionshare/internal/footprint"
	"partitionshare/internal/mrc"
	"partitionshare/internal/obs"
	"partitionshare/internal/par"
	"partitionshare/internal/reuse"
	"partitionshare/internal/trace"
)

// Observability names for profiling, package-prefixed dotted.snake per
// the obsname registry convention.
const (
	spanProfile      = "workload.profile"
	spanReuseCollect = "workload.reuse_collect"

	mProgramsProfiled = "workload.programs_profiled"
	mTraceAccesses    = "workload.trace_accesses"
)

// Config fixes the cache geometry and profiling scale.
type Config struct {
	// Units is the number of partition units (paper: 1024).
	Units int
	// BlocksPerUnit is the unit size in cache blocks (paper: 128 blocks
	// of 64 B = 8 KB; the default here is 16 to keep synthetic working
	// sets and trace lengths laptop-sized at the same unit count).
	BlocksPerUnit int64
	// TraceLen is the number of accesses profiled per program.
	TraceLen int
	// Seed decorrelates the whole suite; per-program seeds derive from it.
	Seed uint64
}

// DefaultConfig is the full experiment geometry: a 1024-unit cache, as in
// the paper's evaluation. The trace length is chosen so that even the
// lowest-miss-ratio program touches a few cache-fuls of distinct data over
// its trace (footprint growth ≈ miss rate), keeping every 4-program group
// cache-contended as in the paper's 8 MB setup.
func DefaultConfig() Config {
	return Config{Units: 1024, BlocksPerUnit: 4, TraceLen: 1 << 23, Seed: 1}
}

// TestConfig is a reduced geometry for fast tests, proportional to
// DefaultConfig (same accesses-to-cache ratio).
func TestConfig() Config {
	return Config{Units: 128, BlocksPerUnit: 4, TraceLen: 1 << 19, Seed: 1}
}

// CacheBlocks returns the total cache size in blocks.
func (c Config) CacheBlocks() int64 { return int64(c.Units) * c.BlocksPerUnit }

func (c Config) validate() error {
	if c.Units <= 0 || c.BlocksPerUnit <= 0 || c.TraceLen <= 0 {
		return fmt.Errorf("workload: invalid config %+v", c)
	}
	return nil
}

// Spec declares one synthetic program.
type Spec struct {
	Name string
	// Rate is the program's relative access rate (accesses per unit
	// time); only ratios between co-run programs matter.
	Rate float64
	// Build returns the program's access-pattern generator for a cache of
	// cacheBlocks blocks.
	Build func(cacheBlocks uint32, seed uint64) trace.Generator
}

// frac returns f·cacheBlocks, at least 2 blocks.
func frac(cacheBlocks uint32, f float64) uint32 {
	v := uint32(f * float64(cacheBlocks))
	if v < 2 {
		v = 2
	}
	return v
}

// program recipe: every program is a mixture of
//
//   - a hot set (sawtooth over hotFrac·cache) absorbing the residual
//     weight — near-zero misses once a small allocation is in place;
//   - a streaming component with weight ws and per-block repeat r,
//     giving an irreducible miss-ratio floor of ws/r (cache-size
//     independent, like true streaming);
//   - zero or more loop components (size fraction, weight) — each one a
//     working-set cliff of height ≈ weight at ≈ size·cache, the
//     non-convexity that defeats STTW. A loop block's revisit gap is
//     size·cache/weight accesses, which must stay well under the trace
//     length for the cliff to be observable;
//   - an optional Zipf component (size fraction, theta, weight) giving a
//     smooth diminishing-returns slope.
type recipe struct {
	hotFrac      float64
	streamW      float64
	streamRepeat int
	loops        [][2]float64 // {sizeFrac, weight}
	zipfFrac     float64
	zipfTheta    float64
	zipfW        float64
}

func (rc recipe) build(cacheBlocks uint32, seed uint64) trace.Generator {
	var gens []trace.Generator
	var weights []float64
	var base uint32
	region := func(g trace.Generator, size uint32) trace.Generator {
		r := trace.Region{Gen: g, Base: base}
		base += size + 8
		return r
	}
	hotSize := frac(cacheBlocks, rc.hotFrac)
	hotW := 1.0 - rc.streamW - rc.zipfW
	for _, l := range rc.loops {
		hotW -= l[1]
	}
	if hotW <= 0 {
		panic(fmt.Sprintf("workload: recipe weights exceed 1 (hot %v)", hotW))
	}
	gens = append(gens, region(trace.NewSawtooth(hotSize), hotSize))
	weights = append(weights, hotW)
	if rc.streamW > 0 {
		gens = append(gens, trace.Region{Gen: trace.NewStreaming(rc.streamRepeat), Base: 1 << 28})
		weights = append(weights, rc.streamW)
	}
	for i, l := range rc.loops {
		size := frac(cacheBlocks, l[0])
		_ = i
		gens = append(gens, region(trace.NewLoop(size, 1), size))
		weights = append(weights, l[1])
	}
	if rc.zipfW > 0 {
		size := frac(cacheBlocks, rc.zipfFrac)
		gens = append(gens, region(trace.NewZipf(size, rc.zipfTheta, seed^0x5bd1e995), size))
		weights = append(weights, rc.zipfW)
	}
	// Deterministic scheduling keeps each loop component's reuse times
	// sharply concentrated, giving the crisp working-set cliffs that make
	// the curves non-convex; a random mixture would smear them into
	// near-convex slopes.
	return trace.NewDeterministicMix(gens, weights)
}

// Specs returns the 16 SPEC-named synthetic programs. Floors (streamW /
// streamRepeat), cliffs (loops), and slopes (zipf) are calibrated against
// the qualitative facts of the paper's Figure 5; see cmd/calibrate.
func Specs() []Spec {
	mk := func(name string, rate float64, rc recipe) Spec {
		return Spec{Name: name, Rate: rate, Build: rc.build}
	}
	// Structure note: each program's Zipf slope is confined to a pool
	// well below its loop cliff, leaving a flat "dead zone" in between.
	// The marginal-gain greedy (STTW) stalls at the pool edge; only the
	// DP jumps the dead zone to collect the cliff — the paper's
	// convexity-assumption failure (§VII-B).
	// Weights are chosen cliff-heavy: the streaming floor contributes
	// roughly a third of each program's equal-partition miss ratio and
	// the loop cliffs about half, so cache allocation decisions move most
	// of the misses — as with real SPEC working-set drop-offs.
	return []Spec{
		mk("lbm", 3.0, recipe{hotFrac: 0.02, streamW: 0.30, streamRepeat: 18,
			loops: [][2]float64{{0.60, 0.028}}, zipfFrac: 0.12, zipfTheta: 1.00, zipfW: 0.012}),
		mk("sphinx3", 2.5, recipe{hotFrac: 0.02, streamW: 0.26, streamRepeat: 20,
			loops: [][2]float64{{0.40, 0.018}}, zipfFrac: 0.15, zipfTheta: 1.00, zipfW: 0.010}),
		mk("mcf", 2.2, recipe{hotFrac: 0.03, streamW: 0.24, streamRepeat: 24,
			loops: [][2]float64{{0.42, 0.018}, {0.80, 0.006}}, zipfFrac: 0.18, zipfTheta: 0.95, zipfW: 0.012}),
		mk("soplex", 2.0, recipe{hotFrac: 0.03, streamW: 0.22, streamRepeat: 25,
			loops: [][2]float64{{0.50, 0.015}}, zipfFrac: 0.15, zipfTheta: 1.00, zipfW: 0.010}),
		mk("omnetpp", 1.8, recipe{hotFrac: 0.03, streamW: 0.20, streamRepeat: 30,
			loops: [][2]float64{{0.30, 0.012}}, zipfFrac: 0.22, zipfTheta: 1.00, zipfW: 0.012}),
		mk("perlbench", 0.7, recipe{hotFrac: 0.02, streamW: 0.18, streamRepeat: 36,
			loops: [][2]float64{{0.45, 0.010}, {0.10, 0.004}}, zipfFrac: 0.20, zipfTheta: 1.00, zipfW: 0.010}),
		mk("zeusmp", 1.6, recipe{hotFrac: 0.04, streamW: 0.12, streamRepeat: 40,
			loops: [][2]float64{{0.33, 0.010}}, zipfFrac: 0.20, zipfTheta: 1.10, zipfW: 0.008}),
		mk("bzip2", 1.4, recipe{hotFrac: 0.03, streamW: 0.11, streamRepeat: 45,
			loops: [][2]float64{{0.29, 0.008}}, zipfFrac: 0.18, zipfTheta: 1.10, zipfW: 0.007}),
		mk("dealII", 1.2, recipe{hotFrac: 0.03, streamW: 0.10, streamRepeat: 50,
			loops: [][2]float64{{0.27, 0.007}}, zipfFrac: 0.20, zipfTheta: 1.15, zipfW: 0.006}),
		mk("wrf", 1.3, recipe{hotFrac: 0.04, streamW: 0.09, streamRepeat: 55,
			loops: [][2]float64{{0.26, 0.0055}}, zipfFrac: 0.16, zipfTheta: 1.20, zipfW: 0.005}),
		mk("h264ref", 1.1, recipe{hotFrac: 0.04, streamW: 0.08, streamRepeat: 55,
			loops: [][2]float64{{0.32, 0.004}, {0.14, 0.002}}, zipfFrac: 0.15, zipfTheta: 1.20, zipfW: 0.0045}),
		mk("hmmer", 3.2, recipe{hotFrac: 0.03, streamW: 0.06, streamRepeat: 75,
			loops: [][2]float64{{0.26, 0.0035}}, zipfFrac: 0.04, zipfTheta: 1.30, zipfW: 0.003}),
		mk("tonto", 3.0, recipe{hotFrac: 0.03, streamW: 0.05, streamRepeat: 85,
			loops: [][2]float64{{0.24, 0.0028}}, zipfFrac: 0.035, zipfTheta: 1.30, zipfW: 0.0025}),
		mk("povray", 0.8, recipe{hotFrac: 0.02, streamW: 0.06, streamRepeat: 75,
			loops: [][2]float64{{0.16, 0.0009}}, zipfFrac: 0.10, zipfTheta: 1.30, zipfW: 0.003}),
		mk("sjeng", 0.6, recipe{hotFrac: 0.02, streamW: 0.05, streamRepeat: 85,
			loops: [][2]float64{{0.20, 0.0007}}, zipfFrac: 0.10, zipfTheta: 1.30, zipfW: 0.0025}),
		mk("namd", 0.5, recipe{hotFrac: 0.015, streamW: 0.035, streamRepeat: 90,
			loops: [][2]float64{{0.12, 0.0005}}, zipfFrac: 0.08, zipfTheta: 1.35, zipfW: 0.002}),
	}
}

// Program is a profiled workload ready for composition and partitioning.
type Program struct {
	Name string
	Rate float64
	// Fp is the program's HOTL footprint (drives composition and the
	// natural partition).
	Fp footprint.Footprint
	// Curve is the miss-ratio curve at unit granularity (drives the
	// partitioning optimizers).
	Curve mrc.Curve
}

// Profile generates and profiles one program under the given geometry.
func Profile(spec Spec, cfg Config) (Program, error) {
	return profileCtx(context.Background(), spec, cfg)
}

// profileCtx is Profile with a trace-span parent: the whole pass records
// as a "workload.profile" span with a "workload.reuse_collect" child, the
// one streaming pass that generates the program's accesses and scans them
// (accesses in its args), so -trace-events timelines show where profiling
// time goes.
func profileCtx(ctx context.Context, spec Spec, cfg Config) (Program, error) {
	if err := cfg.validate(); err != nil {
		return Program{}, err
	}
	ctx, ps := obs.Start(ctx, spanProfile, "profile")
	defer ps.End()
	_, cs := obs.Start(ctx, spanReuseCollect, "profile")
	fp := footprint.New(collect(spec, cfg))
	cs.Arg("accesses", int64(cfg.TraceLen)).End()
	curve := mrc.FromFootprint(spec.Name, fp, cfg.Units, cfg.BlocksPerUnit, spec.Rate)
	// Co-run programs run for the same wall time, so program i issues
	// rate_i·T accesses: weight miss counts by access rate, as the paper
	// does (Eq. 14's trace fractions f_i).
	curve.Accesses = int64(float64(cfg.TraceLen) * spec.Rate)
	return Program{
		Name:  spec.Name,
		Rate:  spec.Rate,
		Fp:    fp,
		Curve: curve,
	}, nil
}

// generator returns the program's access generator, seeded from the
// suite seed and the program's name.
func generator(spec Spec, cfg Config) trace.Generator {
	seed := cfg.Seed*0x100000001b3 ^ hashName(spec.Name)
	return spec.Build(uint32(cfg.CacheBlocks()), seed)
}

// collect profiles the program's cfg.TraceLen accesses in one streaming
// pass: the accesses go from the generator straight into the reuse scan,
// and no trace is materialized.
func collect(spec Spec, cfg Config) reuse.Profile {
	return reuse.CollectStream(generator(spec, cfg), cfg.TraceLen)
}

func hashName(s string) uint64 {
	var h uint64 = 0xcbf29ce484222325
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001b3
	}
	return h
}

// ProfileAll profiles every spec in parallel across the available CPUs and
// returns the programs in spec order. Cancelling ctx skips not-yet-started
// programs and returns ctx.Err(); a nil ctx never cancels. A panic while
// profiling one spec is returned as an error.
func ProfileAll(ctx context.Context, specs []Spec, cfg Config) ([]Program, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	progs := make([]Program, len(specs))
	errs := par.Do(ctx, len(specs), 0, func(_, i int) error {
		// One trace lane per program: profiling passes render as
		// parallel rows in the exported timeline.
		var err error
		progs[i], err = profileCtx(obs.WithTraceLane(ctx, int64(i+1)), specs[i], cfg)
		return err
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if reg := obs.Enabled(); reg != nil {
		reg.Counter(mProgramsProfiled).Add(int64(len(specs)))
		reg.Counter(mTraceAccesses).Add(int64(len(specs)) * int64(cfg.TraceLen))
	}
	return progs, nil
}
