package partition

import (
	"fmt"
	"math"
)

// ReferenceOptimize is the original scatter-form DP, kept verbatim as the
// oracle for the gather kernel: differential tests assert that Optimize and
// OptimizeContext reproduce its objective, allocation, and tie-breaking
// bit for bit, and the paired benchmarks in bench_test.go measure the
// kernel against it. It allocates all working state per call.
func ReferenceOptimize(pr Problem) (Solution, error) {
	if err := pr.validate(); err != nil {
		return Solution{}, err
	}
	n, C := len(pr.Curves), pr.Units

	const inf = math.MaxFloat64
	// dp[k]: best objective for the programs seen so far using exactly k
	// units. choice[p][k]: units given to program p in that optimum.
	dp := make([]float64, C+1)
	next := make([]float64, C+1)
	choice := make([][]int32, n)

	for k := range dp {
		dp[k] = inf
	}
	// The empty-set objective: 0 for Sum, -Inf for Minimax (the identity
	// of max), so the first program's cost passes through unchanged even
	// if negative.
	if pr.Combine == Minimax {
		dp[0] = math.Inf(-1)
	} else {
		dp[0] = 0
	}

	for p := 0; p < n; p++ {
		choice[p] = make([]int32, C+1)
		lo, hi := pr.bounds(p)
		costs := make([]float64, hi-lo+1)
		for u := lo; u <= hi; u++ {
			costs[u-lo] = pr.cost(p, u)
		}
		for k := range next {
			next[k] = inf
		}
		for k := 0; k <= C; k++ {
			if dp[k] == inf {
				continue
			}
			for u := lo; u <= hi && k+u <= C; u++ {
				var cand float64
				if pr.Combine == Minimax {
					cand = math.Max(dp[k], costs[u-lo])
				} else {
					cand = dp[k] + costs[u-lo]
				}
				if cand < next[k+u] {
					next[k+u] = cand
					choice[p][k+u] = int32(u)
				}
			}
		}
		dp, next = next, dp
	}

	if dp[C] == inf {
		return Solution{}, fmt.Errorf("partition: no feasible allocation (internal)")
	}
	alloc := make(Allocation, n)
	k := C
	for p := n - 1; p >= 0; p-- {
		u := int(choice[p][k])
		alloc[p] = u
		k -= u
	}
	if k != 0 {
		return Solution{}, fmt.Errorf("partition: reconstruction leftover %d units (internal)", k)
	}
	return pr.solution(alloc, dp[C]), nil
}
