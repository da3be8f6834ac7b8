package cachesim

import (
	"context"
	"fmt"
	"sort"

	"partitionshare/internal/obs"
	"partitionshare/internal/trace"
)

// Observability names, package-prefixed dotted.snake per the obsname
// registry convention. The simulators pass their span constant through
// simSpan, so each name still appears exactly once.
const (
	spanShared          = "cachesim.shared"
	spanPartitioned     = "cachesim.partitioned"
	spanPartitionShared = "cachesim.partition_shared"

	mAccesses = "cachesim.accesses"
	mMisses   = "cachesim.misses"
)

// simSpan opens a root trace span for one simulation. The simulators
// take no context (they are pure CPU loops called from study helpers),
// so their spans are parentless — they still land on the caller
// goroutine's default lane and show where co-run simulation time goes.
func simSpan(name string) *obs.Span {
	_, ts := obs.Start(context.Background(), name, "sim") //vetkit:ignore(obsname): name is forwarded verbatim from the span constants above
	return ts
}

// countSim batches one simulation's volume into the registry: a single
// pair of atomic adds per simulated trace, never per access.
func countSim(accesses, misses int64) {
	if reg := obs.Enabled(); reg != nil {
		reg.Counter(mAccesses).Add(accesses)
		reg.Counter(mMisses).Add(misses)
	}
}

func sumCounts(accesses, misses []int64) (a, m int64) {
	for p := range accesses {
		a += accesses[p]
		m += misses[p]
	}
	return a, m
}

// CoRunResult reports a shared-cache co-run simulation.
type CoRunResult struct {
	// Accesses[p] and Misses[p] count program p's accesses and misses.
	Accesses []int64
	Misses   []int64
	// MeanOccupancy[p] is program p's average cache occupancy in blocks,
	// sampled every access after warmup — the empirical counterpart of
	// the natural cache partition (paper §V-A).
	MeanOccupancy []float64
}

// MissRatio returns program p's miss ratio.
func (r CoRunResult) MissRatio(p int) float64 {
	if r.Accesses[p] == 0 {
		return 0
	}
	return float64(r.Misses[p]) / float64(r.Accesses[p])
}

// GroupMissRatio returns total misses over total accesses.
func (r CoRunResult) GroupMissRatio() float64 {
	var m, a int64
	for p := range r.Misses {
		m += r.Misses[p]
		a += r.Accesses[p]
	}
	if a == 0 {
		return 0
	}
	return float64(m) / float64(a)
}

// SimulateShared runs an interleaved trace through one shared
// fully-associative LRU cache of the given capacity (in blocks), charging
// each access to its owning program. Occupancy is sampled on every access
// after the first warmup accesses. This is free-for-all sharing — the
// paper's "Natural" configuration measured directly.
func SimulateShared(iv trace.Interleaved, capacity, warmup int) CoRunResult {
	nprogs := len(iv.Counts)
	if nprogs == 0 {
		panic("cachesim: interleaved trace has no programs")
	}
	if warmup < 0 || warmup >= len(iv.Trace) {
		panic(fmt.Sprintf("cachesim: warmup %d out of range for trace of %d", warmup, len(iv.Trace)))
	}
	ts := simSpan(spanShared)
	defer ts.Arg("accesses", int64(len(iv.Trace))).End()
	res := CoRunResult{
		Accesses:      make([]int64, nprogs),
		Misses:        make([]int64, nprogs),
		MeanOccupancy: make([]float64, nprogs),
	}
	cache := NewLRU(capacity)
	occ := make([]int64, nprogs)    // current occupancy in blocks
	occSum := make([]int64, nprogs) // accumulated post-warmup samples
	samples := int64(0)
	owner := ownerResolver(iv.Bases)
	for i, d := range iv.Trace {
		p := int(iv.Owner[i])
		res.Accesses[p]++
		hit, ev, didEvict := cache.Access(d)
		if !hit {
			res.Misses[p]++
			occ[p]++
			if didEvict {
				occ[owner(ev)]--
			}
		}
		if i >= warmup {
			samples++
			for q := 0; q < nprogs; q++ {
				occSum[q] += occ[q]
			}
		}
	}
	if samples > 0 {
		for q := 0; q < nprogs; q++ {
			res.MeanOccupancy[q] = float64(occSum[q]) / float64(samples)
		}
	}
	countSim(sumCounts(res.Accesses, res.Misses))
	return res
}

// ownerResolver returns a function mapping a datum ID to the program that
// owns it, given the per-program base offsets assigned by the interleaver.
func ownerResolver(bases []uint32) func(uint32) int {
	sorted := make([]uint32, len(bases))
	copy(sorted, bases)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	// bases from the interleaver are already ascending, but don't rely on it.
	return func(d uint32) int {
		i := sort.Search(len(sorted), func(i int) bool { return sorted[i] > d }) - 1
		base := sorted[i]
		for p, b := range bases {
			if b == base {
				return p
			}
		}
		panic(fmt.Sprintf("cachesim: datum %d has no owner", d))
	}
}

// PartitionResult reports a partitioned-cache simulation.
type PartitionResult struct {
	Accesses []int64
	Misses   []int64
}

// MissRatio returns program p's miss ratio.
func (r PartitionResult) MissRatio(p int) float64 {
	if r.Accesses[p] == 0 {
		return 0
	}
	return float64(r.Misses[p]) / float64(r.Accesses[p])
}

// GroupMissRatio returns total misses over total accesses.
func (r PartitionResult) GroupMissRatio() float64 {
	var m, a int64
	for p := range r.Misses {
		m += r.Misses[p]
		a += r.Accesses[p]
	}
	if a == 0 {
		return 0
	}
	return float64(m) / float64(a)
}

// SimulatePartitioned gives each program a private fully-associative LRU
// partition of capacities[p] blocks and runs its trace through it. With
// strict partitioning, co-run interleaving is irrelevant: each program
// behaves as in a solo run on a smaller cache.
func SimulatePartitioned(traces []trace.Trace, capacities []int) PartitionResult {
	if len(traces) != len(capacities) {
		panic(fmt.Sprintf("cachesim: %d traces but %d capacities", len(traces), len(capacities)))
	}
	ts := simSpan(spanPartitioned)
	defer ts.End()
	res := PartitionResult{
		Accesses: make([]int64, len(traces)),
		Misses:   make([]int64, len(traces)),
	}
	for p, tr := range traces {
		cache := NewLRU(capacities[p])
		res.Accesses[p] = int64(len(tr))
		res.Misses[p] = cache.Run(tr)
	}
	countSim(sumCounts(res.Accesses, res.Misses))
	return res
}

// SimulatePartitionShared runs a partition-sharing configuration: groups[g]
// lists the programs sharing partition g, which has capacities[g] blocks.
// Programs within a group access their shared partition in the interleaved
// order given by iv, restricted to that group's members; programs are
// identified by their index in iv. Every program must appear in exactly one
// group. This directly evaluates arbitrary partition-sharing schemes
// (paper §II, scenario 2).
func SimulatePartitionShared(iv trace.Interleaved, groups [][]int, capacities []int) CoRunResult {
	nprogs := len(iv.Counts)
	if len(groups) != len(capacities) {
		panic(fmt.Sprintf("cachesim: %d groups but %d capacities", len(groups), len(capacities)))
	}
	groupOf := make([]int, nprogs)
	for p := range groupOf {
		groupOf[p] = -1
	}
	for g, members := range groups {
		for _, p := range members {
			if p < 0 || p >= nprogs {
				panic(fmt.Sprintf("cachesim: group %d has invalid program %d", g, p))
			}
			if groupOf[p] != -1 {
				panic(fmt.Sprintf("cachesim: program %d in multiple groups", p))
			}
			groupOf[p] = g
		}
	}
	for p, g := range groupOf {
		if g == -1 {
			panic(fmt.Sprintf("cachesim: program %d not in any group", p))
		}
	}
	ts := simSpan(spanPartitionShared)
	defer ts.Arg("accesses", int64(len(iv.Trace))).End()
	res := CoRunResult{
		Accesses:      make([]int64, nprogs),
		Misses:        make([]int64, nprogs),
		MeanOccupancy: make([]float64, nprogs),
	}
	caches := make([]*LRU, len(groups))
	for g := range caches {
		caches[g] = NewLRU(capacities[g])
	}
	for i, d := range iv.Trace {
		p := int(iv.Owner[i])
		res.Accesses[p]++
		if hit, _, _ := caches[groupOf[p]].Access(d); !hit {
			res.Misses[p]++
		}
	}
	countSim(sumCounts(res.Accesses, res.Misses))
	return res
}
