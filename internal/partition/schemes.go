package partition

import (
	"fmt"

	"partitionshare/internal/mrc"
)

// EqualAllocation splits C units evenly among n programs, giving the
// remainder one unit each to the lowest-indexed programs (the paper's Equal
// scheme; its configuration has C divisible by n so the remainder is zero).
func EqualAllocation(n, units int) Allocation {
	if n <= 0 || units < 0 {
		panic(fmt.Sprintf("partition: invalid EqualAllocation(%d, %d)", n, units))
	}
	alloc := make(Allocation, n)
	base, rem := units/n, units%n
	for p := range alloc {
		alloc[p] = base
		if p < rem {
			alloc[p]++
		}
	}
	return alloc
}

// DefaultBaselineTolerance is the relative slack used by baseline
// optimization: a program counts as "no worse than its baseline" while its
// miss ratio stays within this fraction of the baseline miss ratio. Real
// miss-ratio curves have flat regions where cache can be shed exactly for
// free; measured or model-derived curves are strictly decreasing at
// floating-point granularity, so a literal zero tolerance would leave the
// optimizer no room at all. Half a percent is well inside the HOTL
// prediction error the paper accepts (§VII-C).
const DefaultBaselineTolerance = 0.005

// BaselineMinAlloc computes, for each program, the smallest allocation
// whose miss ratio does not exceed the program's miss ratio under the given
// baseline allocation (within the relative tolerance tol). Using these as
// DP lower bounds yields the paper's baseline optimization (§VI): group
// misses are minimized subject to no program doing (meaningfully) worse
// than its baseline. Curves must be non-increasing (repair with
// MonotoneRepair first).
func BaselineMinAlloc(curves []mrc.Curve, baseline Allocation, tol float64) []int {
	if len(curves) != len(baseline) {
		panic(fmt.Sprintf("partition: %d curves but %d baseline entries", len(curves), len(baseline)))
	}
	if tol < 0 {
		panic(fmt.Sprintf("partition: negative baseline tolerance %v", tol))
	}
	mins := make([]int, len(curves))
	for p, c := range curves {
		target := c.MissRatio(baseline[p]) * (1 + tol)
		u := 0
		for ; u <= c.Units(); u++ {
			if c.MissRatio(u) <= target+1e-15 {
				break
			}
		}
		if u > baseline[p] {
			// Monotone curves guarantee u <= baseline[p]; guard against
			// non-monotone input so the bound never exceeds the baseline
			// (which must stay feasible).
			u = baseline[p]
		}
		mins[p] = u
	}
	return mins
}

// OptimizeWithBaseline minimizes the group miss count subject to every
// program performing at least as well as under the baseline allocation,
// within DefaultBaselineTolerance.
func OptimizeWithBaseline(curves []mrc.Curve, units int, baseline Allocation) (Solution, error) {
	return OptimizeBaseline(Problem{Curves: curves, Units: units}, baseline)
}

// OptimizeBaseline is OptimizeWithBaseline over a full Problem: the
// baseline lower bounds (within DefaultBaselineTolerance) are derived from
// the problem's curves and installed as MinAlloc, while the problem's cost
// source — including a precomputed CostTable — is kept. Batch harnesses use
// it to share one miss-count table across every scheme of a group.
func OptimizeBaseline(pr Problem, baseline Allocation) (Solution, error) {
	pr.MinAlloc = BaselineMinAlloc(pr.Curves, baseline, DefaultBaselineTolerance)
	return Optimize(pr)
}

// sttwItem is a heap entry: the marginal miss-count reduction program p
// would get from one more unit.
type sttwItem struct {
	p    int
	gain float64
}

// sttwHeap is a max-heap on gain. Its sift steps are container/heap's, so
// equal gains — every gain on a flat curve tail is 0 — resolve in exactly
// the order a container/heap over the same items would give.
type sttwHeap []sttwItem

// init heapifies h as container/heap.Init does.
func (h sttwHeap) init() {
	n := len(h)
	for i := n/2 - 1; i >= 0; i-- {
		h.down(i, n)
	}
}

func (h sttwHeap) up(j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || !(h[j].gain > h[i].gain) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (h sttwHeap) down(i, n int) {
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && h[j2].gain > h[j1].gain {
			j = j2 // right child
		}
		if !(h[j].gain > h[i].gain) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

// STTW computes the Stone–Thiebaut–Turek–Wolf partition: starting from
// empty allocations, it repeatedly grants one unit to the program with the
// highest marginal miss-count reduction, which equalizes the (access-
// weighted) miss-ratio derivatives — Eq. 13–14. The result minimizes group
// misses iff every curve is convex; on curves with working-set cliffs the
// greedy stalls before the cliff and can do much worse than Optimize
// (paper §VII-B, Figure 7).
//
// Tie order is part of the contract: among programs with equal gains, the
// one granted next is the one a container/heap max-heap would pop, with
// the heap built by heap.Init over programs in index order and each grant
// a heap.Pop followed by a heap.Push of the granted program's next gain.
// Allocations therefore match, unit for unit, what that container/heap
// loop grants, flat curve tails (all gains 0) included.
func STTW(curves []mrc.Curve, units int) Solution {
	if len(curves) == 0 || units <= 0 {
		panic(fmt.Sprintf("partition: invalid STTW instance (%d programs, %d units)", len(curves), units))
	}
	alloc := make(Allocation, len(curves))
	h := make(sttwHeap, len(curves))
	gain := func(p, u int) float64 {
		return curves[p].MissCount(u) - curves[p].MissCount(u+1)
	}
	for p := range curves {
		h[p] = sttwItem{p, gain(p, 0)}
	}
	h.init()
	last := len(h) - 1
	for granted := 0; granted < units; granted++ {
		// heap.Pop then heap.Push of the granted program: the root moves
		// to the last slot, the rest re-heapifies, and the last slot takes
		// the program's next gain and sifts up.
		h[0], h[last] = h[last], h[0]
		h.down(0, last)
		p := h[last].p
		alloc[p]++
		h[last].gain = gain(p, alloc[p])
		h.up(last)
	}
	pr := Problem{Curves: curves, Units: units}
	sol, err := Evaluate(pr, alloc)
	if err != nil {
		panic(fmt.Sprintf("partition: STTW produced invalid allocation: %v", err))
	}
	return sol
}

// STTWOnConvexHull runs STTW on the convex minorants of the curves but
// evaluates the resulting allocation on the true curves. This is the
// classical remedy for non-convex curves (Suh et al. §IX) and an ablation
// point: it repairs some of STTW's losses but still cannot beat the DP.
func STTWOnConvexHull(curves []mrc.Curve, units int) Solution {
	hulls := make([]mrc.Curve, len(curves))
	for i, c := range curves {
		hulls[i] = c.ConvexMinorant()
	}
	hullSol := STTW(hulls, units)
	pr := Problem{Curves: curves, Units: units}
	sol, err := Evaluate(pr, hullSol.Alloc)
	if err != nil {
		panic(fmt.Sprintf("partition: hull STTW produced invalid allocation: %v", err))
	}
	return sol
}
