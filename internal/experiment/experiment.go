// Package experiment reproduces the paper's evaluation (§VII): all
// 4-program co-run groups drawn from the 16-program suite, each evaluated
// under the six cache-allocation schemes (Equal, Natural, Equal-baseline,
// Natural-baseline, Optimal, STTW), summarized as in Table I and Figures
// 5–7. Groups are independent, so the harness fans out over a worker pool.
package experiment

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"partitionshare/internal/compose"
	"partitionshare/internal/mrc"
	"partitionshare/internal/obs"
	"partitionshare/internal/partition"
	"partitionshare/internal/workload"
)

// Observability names for the sweep, package-prefixed dotted.snake per
// the obsname registry convention.
const (
	spanGroup           = "experiment.group"
	spanDPSolve         = "experiment.dp_solve"
	spanCheckpointLoad  = "experiment.checkpoint_load"
	spanCheckpointFlush = "experiment.checkpoint_flush"

	mGroupsCompleted   = "experiment.groups_completed"
	mGroupsFailed      = "experiment.groups_failed"
	mGroupsResumed     = "experiment.groups_resumed"
	mGroups            = "experiment.groups"
	mGroupNS           = "experiment.group_ns"
	mCheckpointLoads   = "experiment.checkpoint_loads"
	mCheckpointFlushes = "experiment.checkpoint_flushes"
)

// Scheme identifies one of the evaluated allocation policies.
type Scheme int

// The six schemes of §VII-A, in the paper's order.
const (
	Equal Scheme = iota
	Natural
	EqualBaseline
	NaturalBaseline
	Optimal
	STTW
	NumSchemes
)

// String returns the paper's name for the scheme.
func (s Scheme) String() string {
	switch s {
	case Equal:
		return "Equal"
	case Natural:
		return "Natural"
	case EqualBaseline:
		return "Equal baseline"
	case NaturalBaseline:
		return "Natural baseline"
	case Optimal:
		return "Optimal"
	case STTW:
		return "STTW"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// GroupResult holds one co-run group's evaluation. Per-member miss
// ratios are not stored (see ProgramMR), which keeps a full sweep's
// Result — 1820 groups × six schemes — about half the size.
type GroupResult struct {
	// Members are indices into the program list.
	Members []int
	// GroupMR[s] is the group miss ratio under scheme s.
	GroupMR [NumSchemes]float64
	// Alloc[s][i] is member i's allocation in units under scheme s.
	Alloc [NumSchemes][]int
}

// ProgramMR returns member i's miss ratio under scheme s, given the
// program list the group indexes. Every scheme, Natural included, is
// evaluated as a whole-unit allocation, so this is the member's curve at
// its allocation: bit for bit the value the scheme's evaluation computed.
func (gr GroupResult) ProgramMR(progs []workload.Program, s Scheme, i int) float64 {
	return progs[gr.Members[i]].Curve.MissRatio(gr.Alloc[s][i])
}

// Result is a full evaluation run.
type Result struct {
	Programs []workload.Program
	Units    int
	Groups   []GroupResult
}

// ErrTooManyGroups reports a search space too large to count in uint64 or
// to materialize in memory.
var ErrTooManyGroups = errors.New("experiment: search space too large")

// maxEnumerate bounds how many groups Combinations will materialize; each
// group costs O(k) memory and the sweep evaluates every one, so anything
// beyond this is a mis-parameterization, not a workload.
const maxEnumerate = 1 << 28

// CombinationCount returns C(n, k) computed in uint64 with explicit
// overflow detection: it wraps ErrTooManyGroups instead of silently
// wrapping around, which an int-typed product would do from n ≈ 62 up.
func CombinationCount(n, k int) (uint64, error) {
	if k < 0 || n < 0 || k > n {
		return 0, fmt.Errorf("experiment: invalid combination count C(%d, %d)", n, k)
	}
	if k > n-k {
		k = n - k
	}
	// c = c·(n−k+i)/i is exact at every step: after i steps c = C(n−k+i, i).
	// The 128-bit intermediate product keeps the check exact; hi >= i would
	// make the quotient overflow uint64.
	c := uint64(1)
	for i := 1; i <= k; i++ {
		hi, lo := bits.Mul64(c, uint64(n-k+i))
		if hi >= uint64(i) {
			return 0, fmt.Errorf("%w: C(%d, %d) overflows uint64", ErrTooManyGroups, n, k)
		}
		c, _ = bits.Div64(hi, lo, uint64(i))
	}
	return c, nil
}

// Combinations enumerates all k-subsets of {0..n-1} in lexicographic order.
// Invalid arguments and search spaces too large to materialize return an
// error (wrapping ErrTooManyGroups for the latter) instead of panicking or
// overflowing.
func Combinations(n, k int) ([][]int, error) {
	count, err := CombinationCount(n, k)
	if err != nil {
		return nil, err
	}
	if count > maxEnumerate {
		return nil, fmt.Errorf("%w: C(%d, %d) = %d groups exceeds the %d enumeration cap",
			ErrTooManyGroups, n, k, count, maxEnumerate)
	}
	out := make([][]int, 0, count)
	idx := make([]int, k)
	var rec func(start, d int)
	rec = func(start, d int) {
		if d == k {
			cp := make([]int, k)
			copy(cp, idx)
			out = append(out, cp)
			return
		}
		for i := start; i < n; i++ {
			idx[d] = i
			rec(i+1, d+1)
		}
	}
	rec(0, 0)
	return out, nil
}

// EvaluateGroup runs all six schemes on one co-run group.
func EvaluateGroup(progs []workload.Program, members []int, units int, blocksPerUnit int64) (GroupResult, error) {
	return evaluateGroup(context.Background(), progs, members, units, blocksPerUnit, nil, partition.SolverAuto)
}

// CostTable precomputes each program's miss-count column cost[p][u] =
// Curves[p].MissCount(u) for u in [0, units]. Run computes it once and
// shares the rows across all groups and schemes, so the sweep's thousands
// of DP solves never rebuild per-program costs; the entries are the exact
// values the solvers would compute themselves.
func CostTable(progs []workload.Program, units int) [][]float64 {
	tab := make([][]float64, len(progs))
	for i := range progs {
		row := make([]float64, units+1)
		for u := range row {
			row[u] = progs[i].Curve.MissCount(u)
		}
		tab[i] = row
	}
	return tab
}

// evaluateGroup is EvaluateGroup with an optional precomputed cost table
// indexed by program (not group-member) position. ctx carries the trace
// parent (the worker's group span during a sweep), so each scheme's DP
// solve renders as a child "experiment.dp_solve" span in -trace-events
// timelines.
// solver selects the DP strategy for every scheme's solve; rungs an
// instance cannot certify fall through to the exact kernel, so any value
// is safe here. The two baseline schemes are solved on their feasible
// box of C − ΣMinAlloc units, which at the paper's C=1024 stays below
// the refinement floor, so they run the exact kernel on the box.
func evaluateGroup(ctx context.Context, progs []workload.Program, members []int, units int, blocksPerUnit int64, costTab [][]float64, solver partition.Solver) (GroupResult, error) {
	n := len(members)
	if n == 0 {
		return GroupResult{}, fmt.Errorf("experiment: empty group")
	}
	curves := make([]mrc.Curve, n)
	comps := make([]compose.Program, n)
	var groupTab [][]float64
	if costTab != nil {
		groupTab = make([][]float64, n)
	}
	for i, m := range members {
		if m < 0 || m >= len(progs) {
			return GroupResult{}, fmt.Errorf("experiment: invalid member %d", m)
		}
		curves[i] = progs[m].Curve
		comps[i] = compose.Program{Name: progs[m].Name, Fp: progs[m].Fp, Rate: progs[m].Rate}
		if costTab != nil {
			groupTab[i] = costTab[m]
		}
	}
	res := GroupResult{Members: append([]int(nil), members...)}
	pr := partition.Problem{Curves: curves, Units: units, CostTable: groupTab, Solver: solver}

	record := func(s Scheme, sol partition.Solution) {
		res.GroupMR[s] = sol.GroupMissRatio
		res.Alloc[s] = sol.Alloc
	}

	// Equal: fixed even split.
	equalAlloc := partition.EqualAllocation(n, units)
	sol, err := partition.Evaluate(pr, equalAlloc)
	if err != nil {
		return GroupResult{}, fmt.Errorf("experiment: equal: %w", err)
	}
	record(Equal, sol)

	// Natural: free-for-all sharing, modelled by the natural cache
	// partition at unit granularity.
	naturalAlloc := partition.Allocation(compose.NaturalPartitionUnits(comps, units, blocksPerUnit))
	sol, err = partition.Evaluate(pr, naturalAlloc)
	if err != nil {
		return GroupResult{}, fmt.Errorf("experiment: natural: %w", err)
	}
	record(Natural, sol)

	// solveSpan traces one scheme's DP solve; a nil tracer makes this an
	// atomic load per scheme, nothing more.
	solveSpan := func(s Scheme) *obs.Span {
		_, ts := obs.Start(ctx, spanDPSolve, "dp")
		return ts.Arg("scheme", int64(s))
	}

	// Baseline optimizations (§VI), sharing the group's cost table.
	ts := solveSpan(EqualBaseline)
	sol, err = partition.OptimizeBaseline(pr, equalAlloc)
	ts.End()
	if err != nil {
		return GroupResult{}, fmt.Errorf("experiment: equal baseline: %w", err)
	}
	record(EqualBaseline, sol)
	ts = solveSpan(NaturalBaseline)
	sol, err = partition.OptimizeBaseline(pr, naturalAlloc)
	ts.End()
	if err != nil {
		return GroupResult{}, fmt.Errorf("experiment: natural baseline: %w", err)
	}
	record(NaturalBaseline, sol)

	// Optimal: unconstrained DP.
	ts = solveSpan(Optimal)
	sol, err = partition.Optimize(pr)
	ts.End()
	if err != nil {
		return GroupResult{}, fmt.Errorf("experiment: optimal: %w", err)
	}
	record(Optimal, sol)

	// STTW: the classic greedy.
	record(STTW, partition.STTW(curves, units))

	return res, nil
}

// GroupError reports one co-run group's failure: a solver error or a
// recovered worker panic. The sweep isolates it — other groups complete —
// and the caller can identify the offending group from Members.
type GroupError struct {
	// Members are the failed group's program indices.
	Members []int
	// Cause is the underlying error; recovered panics include the panic
	// value and stack.
	Cause error
}

func (e *GroupError) Error() string {
	return fmt.Sprintf("experiment: group %v: %v", e.Members, e.Cause)
}

func (e *GroupError) Unwrap() error { return e.Cause }

// RunOpts tunes the sweep's parallelism and fault handling. The zero value
// is the default configuration: all CPUs, collect-errors mode, no
// checkpointing.
type RunOpts struct {
	// Workers is the worker-pool size. Values <= 0 default to
	// runtime.GOMAXPROCS(0); all values are capped at GOMAXPROCS (the DP
	// is CPU-bound, so oversubscription only adds scheduling noise) and at
	// the number of groups.
	Workers int
	// FailFast stops dispatching new groups after the first failure and
	// returns that group's error alone. When false (the default), every
	// group is attempted and all failures are returned joined, with the
	// successful groups' results retained.
	FailFast bool
	// CheckpointPath, when non-empty, enables crash recovery: completed
	// group results are periodically flushed to this path as a versioned
	// JSON checkpoint via atomic write-temp+rename, including a final
	// flush on cancellation. See Checkpoint.
	CheckpointPath string
	// CheckpointEvery is the flush interval in completed groups
	// (<= 0 means checkpointDefaultEvery). Flushing is O(completed), so
	// very small values turn the sweep quadratic; the default amortizes
	// to a few percent overhead.
	CheckpointEvery int
	// Resume, when non-nil, skips groups already present in the
	// checkpoint, reusing their recorded results. The checkpoint's
	// geometry must match the run's (ErrCheckpointMismatch otherwise).
	Resume *Checkpoint
	// Solver selects the DP strategy for every scheme's solve (see
	// partition.Solver). The zero value is SolverAuto — the solver
	// ladder — which is the right choice outside A/B experiments.
	Solver partition.Solver
	// OnProgress, when non-nil, is called after every processed group
	// (completed or failed, plus once up front covering any resumed
	// groups) with the running processed count and the total. Calls come
	// from worker goroutines concurrently, so the callback must be safe
	// for concurrent use — routing it into obs.Progressf (one serialized
	// reporter) is the intended wiring.
	OnProgress func(processed, total int)
}

// evaluateGroupSafe runs evaluateGroup with panics recovered into errors,
// so one pathological group (or a bug in a solver path) degrades to a
// typed GroupError instead of crashing the whole sweep.
func evaluateGroupSafe(ctx context.Context, progs []workload.Program, members []int, units int, blocksPerUnit int64, costTab [][]float64, solver partition.Solver) (gr GroupResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			// A panic value that is itself an error stays in the chain
			// (%w), so callers can errors.Is through the GroupError all
			// the way to a typed cause.
			if perr, ok := r.(error); ok {
				err = fmt.Errorf("panic: %w\n%s", perr, debug.Stack())
			} else {
				err = fmt.Errorf("panic: %v\n%s", r, debug.Stack())
			}
		}
	}()
	if testHookEvaluateGroup != nil {
		testHookEvaluateGroup(members)
	}
	return evaluateGroup(ctx, progs, members, units, blocksPerUnit, costTab, solver)
}

// testHookEvaluateGroup, when non-nil, runs at the top of every group
// evaluation inside the recovery envelope. Tests use it to inject faults.
var testHookEvaluateGroup func(members []int)

// Run evaluates every groupSize-subset of the programs in parallel and
// returns the results in lexicographic group order.
//
// Fault model: the sweep is cancellable (ctx), panic-isolated (a failing
// group becomes a GroupError, per opts.FailFast), and resumable
// (opts.CheckpointPath / opts.Resume). On cancellation it returns
// ctx.Err() after draining the workers and flushing a final checkpoint;
// the partial Result holds every group completed before the cut.
func Run(ctx context.Context, progs []workload.Program, groupSize, units int, blocksPerUnit int64, opts RunOpts) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if groupSize < 1 || groupSize > len(progs) {
		return Result{}, fmt.Errorf("experiment: group size %d out of range for %d programs", groupSize, len(progs))
	}
	for i := range progs {
		if err := progs[i].Curve.Validate(); err != nil {
			return Result{}, fmt.Errorf("experiment: program %d: %w", i, err)
		}
	}
	groups, err := Combinations(len(progs), groupSize)
	if err != nil {
		return Result{}, err
	}
	res := Result{Programs: progs, Units: units, Groups: make([]GroupResult, len(groups))}
	errs := make([]error, len(groups))

	// Resume: pre-fill results recorded by a previous (interrupted) run
	// and only dispatch the remainder.
	done := make([]bool, len(groups))
	if opts.Resume != nil {
		if err := opts.Resume.Compatible(len(progs), groupSize, units, blocksPerUnit); err != nil {
			return Result{}, err
		}
		seen := make(map[string]GroupResult, len(opts.Resume.Groups))
		for _, gr := range opts.Resume.Groups {
			seen[groupKey(gr.Members)] = gr
		}
		for g, members := range groups {
			if gr, ok := seen[groupKey(members)]; ok {
				res.Groups[g] = gr
				done[g] = true
			}
		}
	}
	var pending []int
	for g := range groups {
		if !done[g] {
			pending = append(pending, g)
		}
	}

	// Metric handles are resolved once per run; with the registry
	// disabled every handle is nil and each use below is a nil check.
	reg := obs.Enabled()
	completedCtr := reg.Counter(mGroupsCompleted)
	failedCtr := reg.Counter(mGroupsFailed)
	groupHist := reg.Histogram(mGroupNS, obs.DurationBuckets())
	resumed := len(groups) - len(pending)
	reg.Counter(mGroupsResumed).Add(int64(resumed))
	reg.Gauge(mGroups).Set(int64(len(groups)))

	// processed counts resumed + completed + failed groups; workers
	// publish it through OnProgress after every group.
	var processed atomic.Int64
	processed.Store(int64(resumed))
	if opts.OnProgress != nil && resumed > 0 {
		opts.OnProgress(resumed, len(groups))
	}

	costTab := CostTable(progs, units)

	// The checkpointer owns the done set ordering: workers report
	// completed indices over the channel (the send happens after the
	// result write, giving the checkpointer a happens-before edge), and
	// the checkpointer flushes a deterministic, lexicographically sorted
	// snapshot every CheckpointEvery completions plus once at the end.
	ckpt := startCheckpointer(ctx, &res, done, len(progs), groupSize, blocksPerUnit, opts)

	// FailFast cancels this derived context so in-flight workers stop
	// pulling jobs; parent cancellation flows through it too.
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	// The jobs channel holds the whole work list so the feeder never
	// blocks and workers drain it back-to-back; each worker's sequential
	// solves then reuse one pooled DP scratch arena, keeping the sweep's
	// hot path allocation-free.
	var wg sync.WaitGroup
	jobs := make(chan int, len(pending))
	for _, g := range pending {
		jobs <- g
	}
	close(jobs)
	maxWorkers := runtime.GOMAXPROCS(0)
	workers := opts.Workers
	if workers <= 0 || workers > maxWorkers {
		workers = maxWorkers
	}
	if workers > len(pending) {
		workers = len(pending)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each worker owns one trace lane (row in the exported
			// timeline); lane 0 stays the main goroutine's.
			laneCtx := obs.WithTraceLane(runCtx, int64(w+1))
			for g := range jobs {
				// Prompt drain: once cancelled (Ctrl-C or FailFast), skip
				// the remaining queue instead of solving it.
				if runCtx.Err() != nil {
					return
				}
				var start time.Time
				if reg != nil {
					start = time.Now()
				}
				gctx, gspan := obs.Start(laneCtx, spanGroup, "sweep")
				gr, err := evaluateGroupSafe(gctx, progs, groups[g], units, blocksPerUnit, costTab, opts.Solver)
				gspan.Arg("group", int64(g)).End()
				if reg != nil {
					groupHist.Observe(time.Since(start).Nanoseconds())
				}
				if err != nil {
					failedCtr.Inc()
					if opts.OnProgress != nil {
						opts.OnProgress(int(processed.Add(1)), len(groups))
					}
					errs[g] = &GroupError{Members: append([]int(nil), groups[g]...), Cause: err}
					if opts.FailFast {
						cancel()
					}
					continue
				}
				completedCtr.Inc()
				res.Groups[g] = gr
				ckpt.completed(g)
				if opts.OnProgress != nil {
					opts.OnProgress(int(processed.Add(1)), len(groups))
				}
			}
		}()
	}
	wg.Wait()
	if err := ckpt.finish(); err != nil {
		return res, err
	}

	if err := ctx.Err(); err != nil {
		return res, err
	}
	var groupErrs []error
	for _, err := range errs {
		if err != nil {
			groupErrs = append(groupErrs, err)
			if opts.FailFast {
				return res, err
			}
		}
	}
	if groupErrs != nil {
		// Collect mode: keep the completed groups (in lexicographic
		// order) and report every failure.
		kept := res.Groups[:0]
		for g := range groups {
			if errs[g] == nil {
				kept = append(kept, res.Groups[g])
			}
		}
		res.Groups = kept
		return res, errors.Join(groupErrs...)
	}
	return res, nil
}
