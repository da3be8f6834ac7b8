// Benchmarks regenerating each experiment of the paper's evaluation
// (§VII): one benchmark per table and figure, the per-group optimizer
// costs the paper reports timing for, and the ablation sweeps called out
// in DESIGN.md. Full-geometry outputs come from cmd/experiments; these
// benchmarks measure the same code paths at measured, repeatable sizes.
package partitionshare_test

import (
	"bytes"
	"fmt"
	"io"
	"sync"
	"testing"

	ps "partitionshare"
	"partitionshare/internal/experiment"
	"partitionshare/internal/mrc"
	"partitionshare/internal/partition"
	"partitionshare/internal/profileio"
	"partitionshare/internal/reuse"
	"partitionshare/internal/sharing"
	"partitionshare/internal/trace"
	"partitionshare/internal/workload"
)

// ---------------------------------------------------------------- shared

var (
	benchOnce  sync.Once
	benchProgs []workload.Program // 16 programs at test geometry
	benchRes   experiment.Result  // full 1820-group run at test geometry
	benchFull4 []workload.Program // 4 programs at full 1024-unit geometry
)

func benchSetup(b *testing.B) {
	b.Helper()
	benchOnce.Do(func() {
		cfg := workload.TestConfig()
		var err error
		benchProgs, err = workload.ProfileAll(nil, workload.Specs(), cfg)
		if err != nil {
			panic(err)
		}
		benchRes, err = experiment.Run(nil, benchProgs, 4, cfg.Units, cfg.BlocksPerUnit, experiment.RunOpts{})
		if err != nil {
			panic(err)
		}
		full := workload.DefaultConfig()
		benchFull4, err = workload.ProfileAll(nil, workload.Specs()[:4], full)
		if err != nil {
			panic(err)
		}
	})
}

func fullCurves(b *testing.B) []mrc.Curve {
	benchSetup(b)
	curves := make([]mrc.Curve, len(benchFull4))
	for i, p := range benchFull4 {
		curves[i] = p.Curve
	}
	return curves
}

// ------------------------------------------------------- paper artefacts

// BenchmarkTableI regenerates Table I: all 1820 co-run groups under six
// schemes plus the improvement statistics (reduced geometry; the
// full-geometry run is cmd/experiments).
func BenchmarkTableI(b *testing.B) {
	benchSetup(b)
	cfg := workload.TestConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiment.Run(nil, benchProgs, 4, cfg.Units, cfg.BlocksPerUnit, experiment.RunOpts{})
		if err != nil {
			b.Fatal(err)
		}
		experiment.TableI(res)
	}
}

// BenchmarkFigure5 regenerates Figure 5's data: per-program miss-ratio
// series under five schemes for all 16 programs.
func BenchmarkFigure5(b *testing.B) {
	benchSetup(b)
	schemes := []experiment.Scheme{experiment.Natural, experiment.Equal,
		experiment.NaturalBaseline, experiment.EqualBaseline, experiment.Optimal}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for p := range benchProgs {
			experiment.ProgramSeries(benchRes, p, schemes)
		}
	}
}

// BenchmarkFigure6 regenerates Figure 6's data: group miss ratios of five
// schemes sorted by Optimal.
func BenchmarkFigure6(b *testing.B) {
	benchSetup(b)
	schemes := []experiment.Scheme{experiment.Natural, experiment.Equal,
		experiment.NaturalBaseline, experiment.EqualBaseline, experiment.Optimal}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiment.GroupSeries(benchRes, schemes)
	}
}

// BenchmarkFigure7 regenerates Figure 7's data: Optimal vs STTW.
func BenchmarkFigure7(b *testing.B) {
	benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiment.GroupSeries(benchRes, []experiment.Scheme{experiment.STTW, experiment.Optimal})
	}
}

// BenchmarkSearchSpaceS2 computes the §II worked example (S2 for npr=4,
// C=131072 — 375,368,690,761,743).
func BenchmarkSearchSpaceS2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sharing.SpacePartitionSharing(4, 131072)
	}
}

// BenchmarkValidationPair measures one §VII-C pair validation (prediction
// plus shared-cache simulation) at reduced scale.
func BenchmarkValidationPair(b *testing.B) {
	cfg := workload.TestConfig()
	specs := workload.Specs()[:2]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiment.ValidatePairs(nil, specs, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// ------------------------------------------------- per-group solver costs

// BenchmarkOptimalPartitionGroup is the §VII-A cost the paper reports as
// ~0.21 s per group on a 2012 laptop: the optimal partition of 4 programs
// over 1024 units (units=1024). Optimize solves it, like every size here,
// on the refinement rung (DESIGN.md §13), which prunes most of the
// O(P·C²) DP; internal/partition's BenchmarkExactRung is the full-DP
// anchor. The larger sizes resample the same four footprints at one block per unit,
// modeling much larger caches at fine granularity (npr=8 duplicates the
// program set).
func BenchmarkOptimalPartitionGroup(b *testing.B) {
	curves := fullCurves(b)
	b.Run("units=1024", func(b *testing.B) {
		benchOptimize(b, partition.Problem{Curves: curves, Units: 1024})
	})
	for _, lg := range []struct {
		name       string
		units, npr int
	}{{"units=4096", 4096, 4}, {"units=16384", 16384, 4}, {"units=16384/npr=8", 16384, 8}} {
		pr := partition.Problem{Curves: largeCurves(lg.units, lg.npr), Units: lg.units}
		b.Run(lg.name, func(b *testing.B) { benchOptimize(b, pr) })
	}
}

func benchOptimize(b *testing.B, pr partition.Problem) {
	for i := 0; i < b.N; i++ {
		if _, err := partition.Optimize(pr); err != nil {
			b.Fatal(err)
		}
	}
}

// largeCurves resamples the four full-geometry footprints at one block
// per unit over a units-unit modeled cache, duplicating the program set
// when npr exceeds it.
func largeCurves(units, npr int) []mrc.Curve {
	curves := make([]mrc.Curve, npr)
	for i := range curves {
		p := benchFull4[i%len(benchFull4)]
		name := p.Name
		if i >= len(benchFull4) {
			name = fmt.Sprintf("%s#%d", p.Name, i/len(benchFull4)+1)
		}
		curves[i] = mrc.FromFootprint(name, p.Fp, units, 1, p.Rate)
	}
	return curves
}

// BenchmarkOptimalPartitionGroupReference is the "before" half of the
// kernel pair: the original allocation-per-call scatter-form DP, preserved
// as partition.ReferenceOptimize. Comparing it with the exact-rung
// benchmark in internal/partition (BenchmarkExactRung/units=1024)
// measures the gather kernel's gain, and with
// BenchmarkOptimalPartitionGroup/units=1024 the whole solver ladder's.
func BenchmarkOptimalPartitionGroupReference(b *testing.B) {
	curves := fullCurves(b)
	pr := partition.Problem{Curves: curves, Units: 1024}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := partition.ReferenceOptimize(pr); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSTTWGroup is the paper's STTW per-group cost (~0.11 s there).
func BenchmarkSTTWGroup(b *testing.B) {
	curves := fullCurves(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		partition.STTW(curves, 1024)
	}
}

// BenchmarkBaselineOptimizationGroup is one §VI equal-baseline DP.
func BenchmarkBaselineOptimizationGroup(b *testing.B) {
	curves := fullCurves(b)
	base := partition.EqualAllocation(len(curves), 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := partition.OptimizeWithBaseline(curves, 1024, base); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNaturalPartitionGroup is one natural-partition computation
// (bisection over composed footprints).
func BenchmarkNaturalPartitionGroup(b *testing.B) {
	benchSetup(b)
	comps := make([]ps.Program, len(benchFull4))
	for i, p := range benchFull4 {
		comps[i] = ps.Program{Name: p.Name, Fp: p.Fp, Rate: p.Rate}
	}
	cfg := workload.DefaultConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ps.NaturalPartitionUnits(comps, cfg.Units, cfg.BlocksPerUnit)
	}
}

// BenchmarkCurveDerive is one tenant's curve derivation: a suite
// program's HOTL footprint sampled into its 1024-unit miss-ratio curve at
// the default geometry, the mrc layer of every profile upload.
func BenchmarkCurveDerive(b *testing.B) {
	benchSetup(b)
	p := benchFull4[0]
	cfg := workload.DefaultConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mrc.FromFootprint(p.Name, p.Fp, cfg.Units, cfg.BlocksPerUnit, p.Rate)
	}
}

// --------------------------------------------------------------- ablations

// BenchmarkDPGranularity sweeps the partition-unit granularity, the
// paper's own cost lever (§VII-A: 8 KB units make the DP 128² times
// cheaper than 64 B blocks).
func BenchmarkDPGranularity(b *testing.B) {
	benchSetup(b)
	cfg := workload.DefaultConfig()
	for _, units := range []int{128, 256, 512, 1024, 2048} {
		blocksPerUnit := cfg.CacheBlocks() / int64(units)
		curves := make([]mrc.Curve, len(benchFull4))
		for i, p := range benchFull4 {
			curves[i] = mrc.FromFootprint(p.Name, p.Fp, units, blocksPerUnit, p.Rate)
		}
		pr := partition.Problem{Curves: curves, Units: units}
		b.Run(fmt.Sprintf("units=%d", units), func(b *testing.B) { benchOptimize(b, pr) })
	}
}

// BenchmarkIncrementalCandidateScan measures the scheduler scenario: score
// 16 candidate fourth members against a fixed base trio via push/pop
// versus full re-optimization.
func BenchmarkIncrementalCandidateScan(b *testing.B) {
	benchSetup(b)
	cfg := workload.TestConfig()
	base := benchProgs[:3]
	cands := benchProgs[3:]
	b.Run("incremental", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			inc := partition.NewIncremental(cfg.Units)
			for _, p := range base {
				if err := inc.Push(p.Curve); err != nil {
					b.Fatal(err)
				}
			}
			for _, c := range cands {
				if err := inc.Push(c.Curve); err != nil {
					b.Fatal(err)
				}
				if _, err := inc.Solve(); err != nil {
					b.Fatal(err)
				}
				if err := inc.Pop(); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("batch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, c := range cands {
				curves := []mrc.Curve{base[0].Curve, base[1].Curve, base[2].Curve, c.Curve}
				if _, err := partition.Optimize(partition.Problem{Curves: curves, Units: cfg.Units}); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkProfileProgram measures one full-trace profiling pass (the
// paper: "on average 23 times slowdown" for full-trace footprint
// analysis): workload.Profile's one streaming pass, generation fused
// into the reuse scan, plus the curve derivation.
func BenchmarkProfileProgram(b *testing.B) {
	cfg := workload.TestConfig()
	spec := workload.Specs()[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := workload.Profile(spec, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCollectReuse pairs the profiling scans on one workload-scale
// trace: the hash-free scan over a materialized trace ("dense"), the
// same scan fed straight from the program's generator ("stream": it
// also generates the accesses, so compare it with "generate" plus
// "dense"), the map-based reference scan (reuse.CollectReference), and
// the sharded parallel scan. All of them produce bit-identical profiles.
func BenchmarkCollectReuse(b *testing.B) {
	cfg := workload.TestConfig()
	spec := workload.Specs()[0]
	gen := func() trace.Generator { return spec.Build(uint32(cfg.CacheBlocks()), cfg.Seed) }
	tr := trace.Generate(gen(), cfg.TraceLen)
	b.Run("dense", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			reuse.Collect(tr)
		}
	})
	b.Run("stream", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			reuse.CollectStream(gen(), cfg.TraceLen)
		}
	})
	b.Run("generate", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			trace.Generate(gen(), cfg.TraceLen)
		}
	})
	b.Run("reference", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			reuse.CollectReference(tr)
		}
	})
	b.Run("parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			reuse.CollectParallel(nil, tr, 0)
		}
	})
}

// benchProfileBody is one full-geometry workload profile (the first
// spec at the default 1024-unit geometry) and its serialized bytes, the
// input of the profile codec benchmarks.
func benchProfileBody(b *testing.B) (profileio.Profile, []byte) {
	b.Helper()
	cfg := workload.DefaultConfig()
	spec := workload.Specs()[0]
	tr := trace.Generate(spec.Build(uint32(cfg.CacheBlocks()), cfg.Seed), cfg.TraceLen)
	p := profileio.Profile{Name: spec.Name, Rate: spec.Rate, Reuse: reuse.Collect(tr)}
	var buf bytes.Buffer
	if err := profileio.Write(&buf, p); err != nil {
		b.Fatal(err)
	}
	return p, buf.Bytes()
}

// BenchmarkProfileRead measures parsing one full-geometry profile — the
// decode step of every tenant PUT — and reports it in MB/s.
func BenchmarkProfileRead(b *testing.B) {
	_, body := benchProfileBody(b)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := profileio.Read(bytes.NewReader(body)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProfileWrite measures serializing one full-geometry profile,
// in MB/s of profile text.
func BenchmarkProfileWrite(b *testing.B) {
	p, body := benchProfileBody(b)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := profileio.Write(io.Discard, p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExhaustivePartitionSharing measures the small-scale exhaustive
// §II search used to verify the natural-partition reduction.
func BenchmarkExhaustivePartitionSharing(b *testing.B) {
	benchSetup(b)
	comps := []ps.Program{
		{Name: "a", Fp: benchProgs[0].Fp, Rate: benchProgs[0].Rate},
		{Name: "b", Fp: benchProgs[5].Fp, Rate: benchProgs[5].Rate},
		{Name: "c", Fp: benchProgs[10].Fp, Rate: benchProgs[10].Rate},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sharing.Exhaustive(comps, 8, 64)
	}
}

// BenchmarkSampledVsFullProfiling is the §VII-A profiling cost trade:
// full-trace reuse collection vs 10% spatial sampling.
func BenchmarkSampledVsFullProfiling(b *testing.B) {
	tr := ps.Generate(ps.NewZipf(1<<15, 0.7, 9), 1<<20)
	b.Run("full", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ps.CollectReuse(tr)
		}
	})
	b.Run("sampled10", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ps.CollectReuseSampled(tr, 0.1, 7)
		}
	})
}

// BenchmarkMechanisms measures the hardware-mechanism comparison.
func BenchmarkMechanisms(b *testing.B) {
	traces := []ps.Trace{
		ps.Generate(ps.NewZipf(3000, 0.7, 1), 1<<15),
		ps.Generate(ps.NewSawtooth(1500), 1<<15),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ps.ComparePartitionMechanisms(traces, []int{1024, 2048}, 64, 16); err != nil {
			b.Fatal(err)
		}
	}
}
