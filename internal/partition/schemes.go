package partition

import (
	"fmt"
	"math"

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
	for p := range curves {
		c := &curves[p]
		// Scan the MR column itself: every u in [0, Units] is MissRatio(u).
		limit := c.MissRatio(baseline[p])*(1+tol) + 1e-15
		u := 0
		for ; u < len(c.MR); u++ {
			if c.MR[u] <= limit {
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
//
// A max-heap's root is always a largest gain, so while one program's gain
// is strictly above every other the heap would grant to it whatever its
// layout: STTW grants those units by a strict argmax over the gains, with
// no heap. Where ties decide, the heap's layout — and so its whole history
// — matters: at the first tie for the largest gain, or at a NaN gain, STTW
// discards the prefix and replays every grant through the heap.
func STTW(curves []mrc.Curve, units int) Solution {
	if len(curves) == 0 || units <= 0 {
		panic(fmt.Sprintf("partition: invalid STTW instance (%d programs, %d units)", len(curves), units))
	}
	alloc := make(Allocation, len(curves))
	h := make(sttwHeap, len(curves))
	if !sttwStrict(curves, units, alloc, h) {
		clear(alloc)
		sttwHeapGrants(curves, units, alloc, h)
	}
	pr := Problem{Curves: curves, Units: units}
	sol, err := Evaluate(pr, alloc)
	if err != nil {
		panic(fmt.Sprintf("partition: STTW produced invalid allocation: %v", err))
	}
	return sol
}

// sttwStrict grants units into alloc while every grant goes to a strict
// largest gain, using h as gain storage. It reports false — with alloc
// partly granted — at the first grant whose largest gain is tied or where
// a gain is NaN.
func sttwStrict(curves []mrc.Curve, units int, alloc Allocation, h sttwHeap) bool {
	for p := range curves {
		h[p] = sttwItem{p, curves[p].MarginalGain(0)}
	}
	best, second, ok := sttwArgmax(h)
	for granted := 0; granted < units; granted++ {
		if !ok {
			return false
		}
		alloc[best]++
		g := curves[best].MarginalGain(alloc[best])
		h[best].gain = g
		if g > second {
			continue // still strictly above every other gain
		}
		best, second, ok = sttwArgmax(h)
	}
	return true
}

// sttwArgmax returns the program with the largest gain and the largest
// gain among the others (−Inf when there are none); ok is false when the
// largest gain is tied or any gain is NaN.
func sttwArgmax(h sttwHeap) (best int, second float64, ok bool) {
	top := h[0].gain
	second = math.Inf(-1)
	ok = top == top
	for p := 1; p < len(h); p++ {
		g := h[p].gain
		switch {
		case g != g:
			ok = false
		case g > top:
			best, second, top = p, top, g
		case g > second:
			second = g
		}
	}
	return best, second, ok && top > second
}

// sttwHeapGrants grants units into alloc through the typed heap h: the
// tie-order reference.
func sttwHeapGrants(curves []mrc.Curve, units int, alloc Allocation, h sttwHeap) {
	for p := range curves {
		h[p] = sttwItem{p, curves[p].MarginalGain(0)}
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
		h[last].gain = curves[p].MarginalGain(alloc[p])
		h.up(last)
	}
}
