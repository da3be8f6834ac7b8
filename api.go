package partitionshare

import (
	"context"

	"partitionshare/internal/cachesim"
	"partitionshare/internal/compose"
	"partitionshare/internal/epoch"
	"partitionshare/internal/experiment"
	"partitionshare/internal/footprint"
	"partitionshare/internal/mrc"
	"partitionshare/internal/partition"
	"partitionshare/internal/reuse"
	"partitionshare/internal/sharing"
	"partitionshare/internal/trace"
	"partitionshare/internal/workload"
)

// ---------------------------------------------------------------- traces

// Trace is a sequence of accesses to abstract cache blocks.
type Trace = trace.Trace

// Generator produces an endless stream of block IDs.
type Generator = trace.Generator

// Interleaved is a merged multi-program access stream with ownership.
type Interleaved = trace.Interleaved

// Region shifts a generator's block IDs into a private range.
type Region = trace.Region

// Phase is one phase of a phased generator.
type Phase = trace.Phase

// Generate draws n accesses from g.
func Generate(g Generator, n int) Trace { return trace.Generate(g, n) }

// NewStreaming returns a generator touching fresh blocks, each repeat
// times in a row.
func NewStreaming(repeat int) Generator { return trace.NewStreaming(repeat) }

// NewLoop returns a cyclic sweep over size blocks (a working-set cliff
// under LRU).
func NewLoop(size uint32, repeat int) Generator { return trace.NewLoop(size, repeat) }

// NewSawtooth returns a forward-backward sweep over size blocks (a smooth
// convex miss-ratio curve under LRU).
func NewSawtooth(size uint32) Generator { return trace.NewSawtooth(size) }

// NewZipf returns a seeded Zipfian generator over size blocks with
// exponent theta.
func NewZipf(size uint32, theta float64, seed uint64) Generator {
	return trace.NewZipf(size, theta, seed)
}

// NewPhased cycles through the given phases (programs whose working set
// changes over time, as in the paper's Figure 1).
func NewPhased(phases ...Phase) Generator { return trace.NewPhased(phases...) }

// NewMixture draws each access from a component with probability
// proportional to its weight, seeded deterministically.
func NewMixture(seed uint64, gens []Generator, weights []float64) Generator {
	return trace.NewMixture(seed, gens, weights)
}

// NewDeterministicMix interleaves components proportionally with a
// largest-deficit scheduler (sharp reuse times, crisp cliffs).
func NewDeterministicMix(gens []Generator, weights []float64) Generator {
	return trace.NewDeterministicMix(gens, weights)
}

// InterleaveProportional merges program traces in exact proportion to
// their access rates.
func InterleaveProportional(traces []Trace, rates []float64, n int) Interleaved {
	return trace.InterleaveProportional(traces, rates, n)
}

// InterleaveRandom merges program traces by seeded rate-weighted draws.
func InterleaveRandom(seed uint64, traces []Trace, rates []float64, n int) Interleaved {
	return trace.InterleaveRandom(seed, traces, rates, n)
}

// -------------------------------------------------------------- locality

// Footprint evaluates the HOTL metrics of one program: average footprint
// fp(w), fill time, inter-miss time, and miss ratio (paper §III).
type Footprint = footprint.Footprint

// ReuseProfile holds a trace's reuse-time and boundary histograms.
type ReuseProfile = reuse.Profile

// ProfileTrace computes a trace's HOTL footprint in one O(n log n) pass.
func ProfileTrace(t Trace) Footprint { return footprint.FromTrace(t) }

// CollectReuse computes the reuse-time profile of a trace.
func CollectReuse(t Trace) ReuseProfile { return reuse.Collect(t) }

// CollectReuseParallel computes the same profile as CollectReuse by
// scanning disjoint trace segments concurrently and merging exactly —
// bit-identical results, sharded across workers (<= 0 means all CPUs).
// Cancelling ctx drains the shards and returns ctx.Err(); a nil ctx never
// cancels.
func CollectReuseParallel(ctx context.Context, t Trace, workers int) (ReuseProfile, error) {
	return reuse.CollectParallel(ctx, t, workers)
}

// CollectReuseSampled computes an approximate reuse profile by spatial
// (datum) sampling at ~rate, an order of magnitude faster at rate 0.1 —
// the paper's sampled-profiling trade-off (§VII-A).
func CollectReuseSampled(t Trace, rate float64, seed uint64) ReuseProfile {
	return reuse.CollectSampled(t, rate, seed)
}

// NewFootprint wraps a reuse profile for footprint evaluation.
func NewFootprint(p ReuseProfile) Footprint { return footprint.New(p) }

// StackDistances returns the exact LRU stack distance of every access
// (reuse.ColdMiss for first accesses) — the ground-truth LRU model.
func StackDistances(t Trace) []int64 { return reuse.StackDistances(t) }

// ColdMiss marks a first access in StackDistances output.
const ColdMiss = reuse.ColdMiss

// ExactLRUMissRatioCurve returns the LRU miss ratio at capacities
// 0..maxC blocks from exact stack distances.
func ExactLRUMissRatioCurve(t Trace, maxC int64) []float64 {
	return reuse.HistogramDistances(reuse.StackDistances(t)).MissRatioCurve(maxC)
}

// SetAssocMissRatioEstimate estimates a set-associative LRU cache's miss
// ratio from a trace's fully-associative stack distances using Smith's
// random-mapping model (paper §VIII).
func SetAssocMissRatioEstimate(t Trace, sets, ways int) float64 {
	return reuse.SetAssocMissRatio(reuse.HistogramDistances(reuse.StackDistances(t)), sets, ways)
}

// ---------------------------------------------------------------- curves

// Curve is a miss-ratio curve at partition-unit granularity, carrying the
// program's access count and rate.
type Curve = mrc.Curve

// CurveFromFootprint samples a footprint into a unit-granularity curve.
func CurveFromFootprint(name string, fp Footprint, units int, blocksPerUnit int64, accessRate float64) Curve {
	return mrc.FromFootprint(name, fp, units, blocksPerUnit, accessRate)
}

// GroupMissRatio returns total misses over total accesses for the given
// per-program allocations.
func GroupMissRatio(curves []Curve, alloc []int) float64 {
	return mrc.GroupMissRatio(curves, alloc)
}

// ----------------------------------------------------------- composition

// Program is one member of a co-run group: a footprint plus an access
// rate.
type Program = compose.Program

// CombinedFootprint evaluates the composed (stretched) footprint of a
// group at combined window length w (paper Eq. 9).
func CombinedFootprint(progs []Program, w float64) float64 {
	return compose.CombinedFp(progs, w)
}

// NaturalPartition returns each program's steady-state occupancy in a
// shared cache of c blocks (paper §V-A, Fig. 4).
func NaturalPartition(progs []Program, c float64) []float64 {
	return compose.NaturalPartition(progs, c)
}

// NaturalPartitionUnits rounds the natural partition to whole cache units
// summing exactly to units.
func NaturalPartitionUnits(progs []Program, units int, blocksPerUnit int64) []int {
	return compose.NaturalPartitionUnits(progs, units, blocksPerUnit)
}

// SharedMissRatios predicts each program's miss ratio in a freely shared
// cache of c blocks under the natural partition assumption (Eq. 11).
func SharedMissRatios(progs []Program, c float64) []float64 {
	return compose.SharedMissRatios(progs, c)
}

// SharedGroupMissRatio predicts the group's overall shared-cache miss
// ratio.
func SharedGroupMissRatio(progs []Program, c float64) float64 {
	return compose.SharedGroupMissRatio(progs, c)
}

// ---------------------------------------------------------- partitioning

// Problem describes a partitioning instance for Optimize.
type Problem = partition.Problem

// Solution is an optimized or evaluated allocation.
type Solution = partition.Solution

// Allocation assigns cache units to programs.
type Allocation = partition.Allocation

// Combine selects the objective aggregation.
type Combine = partition.Combine

// Objective aggregations.
const (
	// Sum minimizes total miss count (the paper's primary objective).
	Sum = partition.Sum
	// Minimax minimizes the worst per-program cost (pure fairness).
	Minimax = partition.Minimax
)

// Optimize finds the optimal partition by dynamic programming over the
// entire solution space — no convexity assumption (paper §V-B, Eq. 15–16).
func Optimize(pr Problem) (Solution, error) { return partition.Optimize(pr) }

// Evaluate scores a fixed allocation under a problem's objective.
func Evaluate(pr Problem, alloc Allocation) (Solution, error) {
	return partition.Evaluate(pr, alloc)
}

// EqualAllocation splits units evenly among n programs.
func EqualAllocation(n, units int) Allocation { return partition.EqualAllocation(n, units) }

// OptimizeWithBaseline minimizes group misses subject to no program doing
// worse than under the baseline allocation (paper §VI).
func OptimizeWithBaseline(curves []Curve, units int, baseline Allocation) (Solution, error) {
	return partition.OptimizeWithBaseline(curves, units, baseline)
}

// STTW computes the classical Stone–Thiebaut–Turek–Wolf greedy partition,
// optimal only for convex curves.
func STTW(curves []Curve, units int) Solution { return partition.STTW(curves, units) }

// OptimizeContext is Optimize made cancellable: cancelling ctx stops the
// solve between DP rounds and returns ctx.Err(); a nil ctx never cancels.
// The optimum is Optimize's, bit for bit.
func OptimizeContext(ctx context.Context, pr Problem) (Solution, error) {
	return partition.OptimizeContext(ctx, pr)
}

// Incremental maintains the optimal-partition DP as programs join and
// leave (push one O(C²) layer per join, O(1) leave) — for schedulers that
// score many candidate groups.
type Incremental = partition.Incremental

// NewIncremental returns an empty incremental optimizer for a cache of the
// given units.
func NewIncremental(units int) *Incremental { return partition.NewIncremental(units) }

// ------------------------------------------------------------ simulation

// LRU is a fully-associative LRU cache simulator.
type LRU = cachesim.LRU

// SetAssoc is a set-associative LRU cache simulator.
type SetAssoc = cachesim.SetAssoc

// CoRunResult reports a shared-cache co-run simulation.
type CoRunResult = cachesim.CoRunResult

// NewLRU returns an empty fully-associative LRU cache of the given
// capacity in blocks.
func NewLRU(capacity int) *LRU { return cachesim.NewLRU(capacity) }

// NewSetAssoc returns a set-associative LRU cache.
func NewSetAssoc(sets, ways int) *SetAssoc { return cachesim.NewSetAssoc(sets, ways) }

// SimulateShared runs an interleaved trace through one shared LRU cache,
// reporting per-program misses and mean occupancies.
func SimulateShared(iv Interleaved, capacity, warmup int) CoRunResult {
	return cachesim.SimulateShared(iv, capacity, warmup)
}

// SimulatePartitionShared simulates an arbitrary partition-sharing scheme:
// groups of programs sharing partitions of given block capacities.
func SimulatePartitionShared(iv Interleaved, groups [][]int, capacities []int) CoRunResult {
	return cachesim.SimulatePartitionShared(iv, groups, capacities)
}

// ----------------------------------------------------- partition-sharing

// SharingScheme is a partition-sharing arrangement: program groups with a
// unit allocation per group.
type SharingScheme = sharing.Scheme

// ExhaustivePartitionSharing searches every grouping and allocation of a
// small instance, returning the best overall and best partitioning-only
// arrangements (paper §II/§V-A reduction check).
func ExhaustivePartitionSharing(progs []Program, units int, blocksPerUnit int64) sharing.ExhaustiveResult {
	return sharing.Exhaustive(progs, units, blocksPerUnit)
}

// EvaluateSharingScheme predicts a partition-sharing scheme's per-program
// and group miss ratios under the HOTL model.
func EvaluateSharingScheme(progs []Program, s SharingScheme, blocksPerUnit int64) sharing.Evaluation {
	return sharing.EvaluateScheme(progs, s, blocksPerUnit)
}

// -------------------------------------------------------------- policies

// PolicyCache is the policy-neutral cache simulator interface (LRU,
// CLOCK, random replacement).
type PolicyCache = cachesim.Cache

// NewClock returns a CLOCK (second-chance) cache simulator — the LRU
// approximation real hardware uses (§VIII).
func NewClock(capacity int) *cachesim.Clock { return cachesim.NewClock(capacity) }

// NewRandomCache returns a seeded random-replacement cache simulator.
func NewRandomCache(capacity int, seed uint64) *cachesim.Random {
	return cachesim.NewRandom(capacity, seed)
}

// MechanismResult compares per-program miss ratios under ideal capacity
// partitioning, way partitioning (CAT-style), and set partitioning (page
// coloring).
type MechanismResult = cachesim.MechanismResult

// ComparePartitionMechanisms measures the gap between the optimizer's
// abstract capacity units and the two hardware partitioning mechanisms.
func ComparePartitionMechanisms(traces []Trace, blocks []int, sets, ways int) (MechanismResult, error) {
	return cachesim.ComparePartitionMechanisms(traces, blocks, sets, ways)
}

// ReadTraceFile reads a trace from a file in either the text (one decimal
// ID per line) or binary delta-varint format, auto-detected.
func ReadTraceFile(path string) (Trace, error) { return trace.ReadFile(path) }

// WriteTraceFile writes a trace to a file, in the compact binary format
// when binaryFormat is true.
func WriteTraceFile(path string, t Trace, binaryFormat bool) error {
	return trace.WriteFile(path, t, binaryFormat)
}

// ----------------------------------------------- epochs & co-run grouping

// EpochProgram is one co-run program profiled per fixed-length epoch for
// phase-aware (dynamic) partitioning.
type EpochProgram = epoch.Program

// EpochPlan is a per-epoch sequence of partition allocations.
type EpochPlan = epoch.Plan

// ProfileEpochs profiles a trace whole and per epoch.
func ProfileEpochs(name string, rate float64, t Trace, epochLen int) (EpochProgram, error) {
	return epoch.ProfileEpochs(name, rate, t, epochLen)
}

// PlanStaticPartition computes one whole-trace optimal partition repeated
// every epoch.
func PlanStaticPartition(progs []EpochProgram, units int, blocksPerUnit int64) (EpochPlan, error) {
	return epoch.PlanStatic(progs, units, blocksPerUnit)
}

// PlanDynamicPartition re-optimizes the partition per epoch.
func PlanDynamicPartition(progs []EpochProgram, units int, blocksPerUnit int64) (EpochPlan, error) {
	return epoch.PlanDynamic(progs, units, blocksPerUnit)
}

// SimulateRepartitioning runs programs through private LRU partitions
// resized at each epoch boundary per the plan.
func SimulateRepartitioning(progs []EpochProgram, plan EpochPlan, epochLen int, blocksPerUnit int64) (epoch.Result, error) {
	return epoch.Simulate(progs, plan, epochLen, blocksPerUnit)
}

// ------------------------------------------------- workloads & evaluation

// WorkloadConfig fixes the cache geometry and profiling scale of the
// synthetic suite.
type WorkloadConfig = workload.Config

// WorkloadSpec declares one synthetic program.
type WorkloadSpec = workload.Spec

// SuiteProgram is a profiled synthetic program.
type SuiteProgram = workload.Program

// SPECLikeSuite returns the 16 synthetic programs standing in for the
// paper's SPEC CPU2006 selection.
func SPECLikeSuite() []WorkloadSpec { return workload.Specs() }

// DefaultWorkloadConfig is the full experiment geometry (1024-unit cache).
func DefaultWorkloadConfig() WorkloadConfig { return workload.DefaultConfig() }

// SmallWorkloadConfig is a reduced geometry for quick runs and tests.
func SmallWorkloadConfig() WorkloadConfig { return workload.TestConfig() }

// ProfileSuite profiles the given specs in parallel. Cancelling ctx skips
// not-yet-started programs and returns ctx.Err(); a nil ctx never cancels.
func ProfileSuite(ctx context.Context, specs []WorkloadSpec, cfg WorkloadConfig) ([]SuiteProgram, error) {
	return workload.ProfileAll(ctx, specs, cfg)
}

// EvaluationResult is a full multi-group evaluation run.
type EvaluationResult = experiment.Result

// EvaluationScheme identifies one of the six evaluated policies.
type EvaluationScheme = experiment.Scheme

// EvaluationOpts tunes a RunEvaluation sweep: worker count, fail-fast vs
// error-collection, solver and progress callback.
type EvaluationOpts = experiment.RunOpts

// GroupEvaluationError is the typed per-group failure (including recovered
// worker panics) surfaced by RunEvaluation; test with errors.As.
type GroupEvaluationError = experiment.GroupError

// RunEvaluation evaluates every groupSize-subset of the programs under the
// six schemes, in parallel (paper §VII). Cancelling ctx drains the workers
// and returns ctx.Err(); a nil ctx never cancels. A zero EvaluationOpts
// reproduces the defaults (all CPUs, collect errors).
func RunEvaluation(ctx context.Context, progs []SuiteProgram, groupSize, units int, blocksPerUnit int64, opts EvaluationOpts) (EvaluationResult, error) {
	return experiment.Run(ctx, progs, groupSize, units, blocksPerUnit, opts)
}
