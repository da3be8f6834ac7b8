// Package experiment reproduces the paper's evaluation (§VII): all
// 4-program co-run groups drawn from the 16-program suite, each evaluated
// under the six cache-allocation schemes (Equal, Natural, Equal-baseline,
// Natural-baseline, Optimal, STTW), summarized as in Table I and Figures
// 5–7. Groups are independent, so the harness fans out over par's worker
// pool.
package experiment

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"sync/atomic"
	"time"

	"partitionshare/internal/compose"
	"partitionshare/internal/mrc"
	"partitionshare/internal/obs"
	"partitionshare/internal/par"
	"partitionshare/internal/partition"
	"partitionshare/internal/workload"
)

// Observability names for the sweep, package-prefixed dotted.snake per
// the obsname registry convention.
const (
	spanGroup   = "experiment.group"
	spanDPSolve = "experiment.dp_solve"

	mGroupsCompleted = "experiment.groups_completed"
	mGroupsFailed    = "experiment.groups_failed"
	mGroups          = "experiment.groups"
	mGroupNS         = "experiment.group_ns"
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

// GroupResult holds one co-run group's evaluation: the group miss ratio
// under each scheme, and the members and every scheme's allocations in
// one int32 slice (see Members, Alloc). Per-member miss ratios are not
// stored (see ProgramMR). That keeps a full sweep's Result — 1820 groups
// × six schemes — at ~340 KiB.
type GroupResult struct {
	// GroupMR[s] is the group miss ratio under scheme s.
	GroupMR [NumSchemes]float64
	// data[:n] are the members' program indices and data[n+s·n+i] is
	// member i's allocation in units under scheme s, for n members.
	// Program counts and units (at most partition.MaxUnits) fit int32.
	data []int32
}

// newGroupResult returns a GroupResult for members with room for every
// scheme's allocation.
func newGroupResult(members []int) GroupResult {
	data := make([]int32, (1+int(NumSchemes))*len(members))
	for i, m := range members {
		data[i] = int32(m)
	}
	return GroupResult{data: data}
}

// size is the group's member count.
func (gr GroupResult) size() int { return len(gr.data) / (1 + int(NumSchemes)) }

// Members returns the group's program indices, in member order, in a new
// slice (nil for a group that was never evaluated).
func (gr GroupResult) Members() []int {
	return ints(gr.data[:gr.size()])
}

// Alloc returns the members' allocations in units under scheme s, in
// member order, in a new slice.
func (gr GroupResult) Alloc(s Scheme) []int {
	n := gr.size()
	return ints(gr.data[n+n*int(s) : n+n*int(s)+n])
}

// memberIndex returns program's position among the members, or −1.
func (gr GroupResult) memberIndex(program int) int {
	for i, m := range gr.data[:gr.size()] {
		if int(m) == program {
			return i
		}
	}
	return -1
}

func ints(xs []int32) []int {
	if len(xs) == 0 {
		return nil
	}
	out := make([]int, len(xs))
	for i, x := range xs {
		out[i] = int(x)
	}
	return out
}

// ProgramMR returns member i's miss ratio under scheme s, given the
// program list the group indexes. Every scheme, Natural included, is
// evaluated as a whole-unit allocation, so this is the member's curve at
// its allocation: bit for bit the value the scheme's evaluation computed.
func (gr GroupResult) ProgramMR(progs []workload.Program, s Scheme, i int) float64 {
	n := gr.size()
	return progs[gr.data[i]].Curve.MissRatio(int(gr.data[n+n*int(s)+i]))
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
	return evaluateGroup(context.Background(), progs, members, units, blocksPerUnit, nil)
}

// CostTable precomputes each program's miss-count column cost[p][u] =
// Curves[p].MissCount(u) for u in [0, units]. Run computes it once per
// sweep and prepares its rows (prepareRows), so the sweep's thousands of
// DP solves never rebuild or re-certify per-program costs; the entries
// are the exact values the solvers would compute themselves.
func CostTable(progs []workload.Program, units int) [][]float64 {
	tab := make([][]float64, len(progs))
	for i := range progs {
		tab[i] = make([]float64, units+1)
		progs[i].Curve.MissCounts(0, tab[i])
	}
	return tab
}

// prepareRows prepares every cost table row for the solver once:
// partition.PrepareRow certifies the row and builds its refinement
// minima, which depend on the program alone, not on the group.
func prepareRows(tab [][]float64) []*partition.CostRow {
	rows := make([]*partition.CostRow, len(tab))
	for i, t := range tab {
		rows[i] = partition.PrepareRow(t)
	}
	return rows
}

// evaluateGroup is EvaluateGroup with optional prepared cost rows
// indexed by program (not group-member) position. ctx carries the trace
// parent (the worker's group span during a sweep), so each scheme's DP
// solve renders as a child "experiment.dp_solve" span in -trace-events
// timelines.
// Every scheme's solve walks the solver ladder; rungs an instance cannot
// certify fall through to the exact kernel. The two baseline schemes are
// solved on their feasible box of C − ΣMinAlloc units, which at the paper's C=1024 stays below
// the refinement floor, so they run the exact kernel on the box.
func evaluateGroup(ctx context.Context, progs []workload.Program, members []int, units int, blocksPerUnit int64, rows []*partition.CostRow) (GroupResult, error) {
	n := len(members)
	if n == 0 {
		return GroupResult{}, fmt.Errorf("experiment: empty group")
	}
	curves := make([]mrc.Curve, n)
	comps := make([]compose.Program, n)
	var groupRows []*partition.CostRow
	if rows != nil {
		groupRows = make([]*partition.CostRow, n)
	}
	for i, m := range members {
		if m < 0 || m >= len(progs) {
			return GroupResult{}, fmt.Errorf("experiment: invalid member %d", m)
		}
		curves[i] = progs[m].Curve
		comps[i] = compose.Program{Name: progs[m].Name, Fp: progs[m].Fp, Rate: progs[m].Rate}
		if rows != nil {
			groupRows[i] = rows[m]
		}
	}
	res := newGroupResult(members)
	pr := partition.Problem{Curves: curves, Units: units, Rows: groupRows}

	record := func(s Scheme, sol partition.Solution) {
		res.GroupMR[s] = sol.GroupMissRatio
		for i, u := range sol.Alloc {
			res.data[n+n*int(s)+i] = int32(u)
		}
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
// is the default configuration: all CPUs, collect-errors mode.
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
	// OnProgress, when non-nil, is called after every processed group
	// (completed or failed) with the running processed count and the
	// total. Calls come from worker goroutines concurrently, so the
	// callback must be safe for concurrent use — routing it into
	// obs.Progressf (one serialized reporter) is the intended wiring.
	OnProgress func(processed, total int)
}

// testHookEvaluateGroup, when non-nil, runs at the top of every group
// evaluation inside the pool's panic recovery. Tests use it to inject
// faults.
var testHookEvaluateGroup func(members []int)

// Run evaluates every groupSize-subset of the programs in parallel and
// returns the results in lexicographic group order.
//
// Fault model: the sweep is cancellable (ctx) and panic-isolated (a
// failing group becomes a GroupError, per opts.FailFast). On
// cancellation it returns ctx.Err() after draining the workers; the
// partial Result holds every group completed before the cut.
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

	// Metric handles are resolved once per run; with the registry
	// disabled every handle is nil and each use below is a nil check.
	reg := obs.Enabled()
	completedCtr := reg.Counter(mGroupsCompleted)
	failedCtr := reg.Counter(mGroupsFailed)
	groupHist := reg.Histogram(mGroupNS, obs.DurationBuckets())
	reg.Gauge(mGroups).Set(int64(len(groups)))

	// processed counts completed + failed groups; workers publish it
	// through OnProgress after every group.
	var processed atomic.Int64

	// The prepared rows live for this Run only; Result keeps none of them.
	rows := prepareRows(CostTable(progs, units))

	// FailFast cancels this derived context so in-flight workers stop
	// pulling jobs; parent cancellation flows through it too.
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	// Each worker owns one trace lane (row in the exported timeline);
	// lane 0 stays the main goroutine's. par.Do runs at most this many
	// workers, and each worker's sequential solves reuse one pooled DP
	// scratch arena, keeping the sweep's hot path allocation-free.
	workers := runtime.GOMAXPROCS(0)
	if opts.Workers > 0 {
		workers = min(opts.Workers, workers)
	}
	lanes := make([]context.Context, workers)
	for w := range lanes {
		lanes[w] = obs.WithTraceLane(runCtx, int64(w+1))
	}
	errs := par.Do(runCtx, len(groups), workers, func(w, g int) error {
		var start time.Time
		if reg != nil {
			start = time.Now()
		}
		gctx, gspan := obs.Start(lanes[w], spanGroup, "sweep")
		// The accounting is deferred so a panicking group, recovered by
		// par.Do, is counted and reported like any other failure.
		completed := false
		defer func() {
			gspan.Arg("group", int64(g)).End()
			if reg != nil {
				groupHist.Observe(time.Since(start).Nanoseconds())
			}
			if completed {
				completedCtr.Inc()
			} else {
				failedCtr.Inc()
				if opts.FailFast {
					cancel()
				}
			}
			if opts.OnProgress != nil {
				opts.OnProgress(int(processed.Add(1)), len(groups))
			}
		}()
		if testHookEvaluateGroup != nil {
			testHookEvaluateGroup(groups[g])
		}
		gr, err := evaluateGroup(gctx, progs, groups[g], units, blocksPerUnit, rows)
		if err != nil {
			return err
		}
		res.Groups[g] = gr
		completed = true
		return nil
	})

	if err := ctx.Err(); err != nil {
		return res, err
	}
	var groupErrs []error
	for g, err := range errs {
		if err != nil {
			err = &GroupError{Members: slices.Clone(groups[g]), Cause: err}
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
