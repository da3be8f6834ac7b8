// Package reuse measures the time-based and distance-based reuse metrics of
// a memory trace: the reuse-time histogram that drives the HOTL footprint
// formula (paper §III), and exact LRU stack distances (reuse distances) that
// give the ground-truth miss-ratio curve of a fully-associative LRU cache.
package reuse

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"partitionshare/internal/trace"
)

// ErrEmptyTrace reports a profiling request over a trace with no accesses —
// reachable from user data (an empty or blank trace file), so it is an
// error, not a panic.
var ErrEmptyTrace = errors.New("reuse: empty trace")

// ErrInvalidProfile reports a Profile whose histograms violate the HOTL
// invariants; every Validate failure wraps it.
var ErrInvalidProfile = errors.New("reuse: invalid profile")

// TailSum answers queries of the form Q(w) = Σ_v max(0, v-w)·count(v) and
// N(w) = Σ_{v>w} count(v) over a multiset of positive integer values, in
// O(log k) per query after O(k log k) construction. The HOTL footprint
// formula is three such queries: over reuse times, first-access times, and
// reverse last-access times.
//
// The multiplicity of values[i] is not stored: it is sufCnt[i]−sufCnt[i+1].
type TailSum struct {
	values []int64 // sorted ascending, unique
	sufCnt []int64 // sufCnt[i] = Σ_{j>=i} count(values[j])
	sufSum []int64 // sufSum[i] = Σ_{j>=i} values[j]*count(values[j])
}

// NewTailSum builds a TailSum from a value→count histogram.
func NewTailSum(hist map[int64]int64) TailSum {
	values := make([]int64, 0, len(hist))
	for v, c := range hist {
		if c != 0 {
			values = append(values, v)
		}
	}
	sort.Slice(values, func(i, j int) bool { return values[i] < values[j] })
	counts := make([]int64, len(values))
	for i, v := range values {
		counts[i] = hist[v]
	}
	return NewTailSumSorted(values, counts)
}

// newTailSumDense builds a TailSum from a dense histogram indexed by value:
// hist[v] is the multiplicity of value v. Index 0 must hold count 0 (all
// TailSum values are positive). A dense scan yields values in ascending
// order directly, so the result is field-for-field identical to
// NewTailSum over the equivalent map — the suffix sums see the same values
// and counts in the same order.
func newTailSumDense(hist []int32) TailSum {
	k := 0
	for _, c := range hist {
		if c != 0 {
			k++
		}
	}
	values, counts := make([]int64, 0, k), make([]int64, 0, k)
	for v, c := range hist {
		if c != 0 {
			values = append(values, int64(v))
			counts = append(counts, int64(c))
		}
	}
	return NewTailSumSorted(values, counts)
}

// NewTailSumSorted builds a TailSum from parallel slices: values strictly
// ascending and positive, counts[i] > 0 the multiplicity of values[i]. It
// is the one place suffix sums are built — NewTailSum, the dense scans and
// the profile reader all end here. The TailSum keeps values as its own
// storage, so the caller must not modify it afterwards; counts is only
// read. It panics on input that breaks the contract.
func NewTailSumSorted(values, counts []int64) TailSum {
	if len(values) != len(counts) {
		panic(fmt.Sprintf("reuse: %d TailSum values but %d counts", len(values), len(counts)))
	}
	ts := TailSum{
		values: values,
		sufCnt: make([]int64, len(values)+1),
		sufSum: make([]int64, len(values)+1),
	}
	for i := len(values) - 1; i >= 0; i-- {
		v, c := values[i], counts[i]
		if v <= 0 || c <= 0 || (i > 0 && values[i-1] >= v) {
			panic(fmt.Sprintf("reuse: TailSum entry %d (value %d, count %d) is not a positive count at a positive, strictly ascending value", i, v, c))
		}
		ts.sufCnt[i] = ts.sufCnt[i+1] + c
		ts.sufSum[i] = ts.sufSum[i+1] + v*c
	}
	return ts
}

// Total returns the total multiplicity of the multiset.
func (ts TailSum) Total() int64 {
	if len(ts.sufCnt) == 0 {
		return 0
	}
	return ts.sufCnt[0]
}

// Excess returns Σ_v max(0, v-w)·count(v).
func (ts TailSum) Excess(w int64) int64 {
	i := sort.Search(len(ts.values), func(i int) bool { return ts.values[i] > w })
	return ts.sufSum[i] - w*ts.sufCnt[i]
}

// CountGreater returns Σ_{v>w} count(v).
func (ts TailSum) CountGreater(w int64) int64 {
	i := sort.Search(len(ts.values), func(i int) bool { return ts.values[i] > w })
	return ts.sufCnt[i]
}

// Each calls fn for every (value, count) pair in ascending value order.
// It is the export half of NewTailSumSorted, used to serialize profiles.
func (ts TailSum) Each(fn func(value, count int64)) {
	for i, v := range ts.values {
		fn(v, ts.sufCnt[i]-ts.sufCnt[i+1])
	}
}

// Len returns the number of distinct values.
func (ts TailSum) Len() int { return len(ts.values) }

// Max returns the largest value in the multiset, or 0 if empty.
func (ts TailSum) Max() int64 {
	if len(ts.values) == 0 {
		return 0
	}
	return ts.values[len(ts.values)-1]
}

// Profile holds the per-trace reuse statistics the HOTL theory consumes.
type Profile struct {
	N int64 // trace length
	M int64 // number of distinct data

	// Reuse is the histogram of reuse times. The reuse time of a pair of
	// consecutive accesses to the same datum at positions p < q (1-based)
	// is q-p, the time gap. A trace with n accesses to m distinct data
	// has exactly n-m reuse pairs.
	Reuse TailSum
	// First is the histogram of first-access times f_k (1-based position
	// of each datum's first access).
	First TailSum
	// Last is the histogram of reverse last-access times l_k = n-p+1
	// where p is the datum's last access position.
	Last TailSum
}

// Validate checks the structural invariants every scan-produced Profile
// satisfies, so profiles arriving from outside (deserialized files, remote
// callers) can be rejected with a typed error instead of corrupting the
// footprint math downstream. All failures wrap ErrInvalidProfile.
//
// Invariants: n > 0 accesses to m ∈ [1, n] distinct data; reuse times lie
// in [1, n−1] and first/last access times in [1, n]; the first- and
// last-access histograms each hold exactly one entry per datum. The
// reuse-pair total is exactly n−m for full-trace profiles; sampled profiles
// (CollectSampled) scale counts uniformly and may land a few percent off in
// either direction, so up to 10% slack over n−m is allowed.
func (p Profile) Validate() error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("%w: %s", ErrInvalidProfile, fmt.Sprintf(format, args...))
	}
	if p.N <= 0 {
		return fail("non-positive access count n=%d", p.N)
	}
	if p.M <= 0 || p.M > p.N {
		return fail("distinct-data count m=%d out of range [1, n=%d]", p.M, p.N)
	}
	if v := p.Reuse.Max(); v >= p.N {
		return fail("reuse time %d >= trace length %d", v, p.N)
	}
	if v := p.First.Max(); v > p.N {
		return fail("first-access time %d > trace length %d", v, p.N)
	}
	if v := p.Last.Max(); v > p.N {
		return fail("last-access time %d > trace length %d", v, p.N)
	}
	if got := p.First.Total(); got != p.M {
		return fail("first-access histogram total %d, want m = %d", got, p.M)
	}
	if got := p.Last.Total(); got != p.M {
		return fail("last-access histogram total %d, want m = %d", got, p.M)
	}
	nm := p.N - p.M
	if got := p.Reuse.Total(); got > nm+nm/10+1 {
		return fail("reuse histogram total %d far exceeds n-m = %d", got, nm)
	}
	return nil
}

// Collect scans the trace once and builds its reuse Profile. It panics on
// an empty trace.
//
// The scan is hash-free: every quantity it histograms is bounded — reuse,
// first-access, and last-access times by the trace length, datum IDs by
// uint32 — so the histograms are dense count slices indexed by value and
// the per-datum last-position table is a two-level paged array (posTable)
// instead of a map. The resulting TailSums are field-for-field identical
// to the map-based reference implementation (CollectReference), which
// remains the oracle in the differential tests and the fallback for traces
// too long for 32-bit positions.
func Collect(t trace.Trace) Profile {
	if len(t) == 0 {
		panic("reuse: cannot profile an empty trace")
	}
	if int64(len(t)) >= math.MaxInt32 {
		return CollectReference(t)
	}
	n := len(t)
	var maxAddr uint32
	for _, d := range t {
		if d > maxAddr {
			maxAddr = d
		}
	}
	pt := newPosTable(maxAddr)
	reuseHist := make([]int32, n+1)
	firstHist := make([]int32, n+1)
	m := 0
	for i, d := range t {
		pos := int32(i) + 1
		pg := pt.pages[d>>posPageBits]
		if pg == nil {
			pg = pt.page(d >> posPageBits)
		}
		prev := pg[d&posPageMask]
		pg[d&posPageMask] = pos
		if prev != 0 {
			reuseHist[pos-prev]++
		} else {
			firstHist[pos]++
			m++
		}
	}
	lastHist := make([]int32, n+1)
	pt.each(func(_ uint32, p int32) {
		lastHist[int32(n)-p+1]++
	})
	return Profile{
		N:     int64(n),
		M:     int64(m),
		Reuse: newTailSumDense(reuseHist),
		First: newTailSumDense(firstHist),
		Last:  newTailSumDense(lastHist),
	}
}

// posTable maps uint32 datum IDs to 1-based access positions through a
// two-level paged array: O(1) hash-free lookup, with memory proportional to
// the ID pages actually touched (region-based traces touch contiguous IDs,
// so pages fill densely). Position 0 means "never seen".
type posTable struct {
	pages [][]int32
}

const (
	posPageBits = 14
	posPageSize = 1 << posPageBits
	posPageMask = posPageSize - 1
)

func newPosTable(maxAddr uint32) *posTable {
	return &posTable{pages: make([][]int32, (maxAddr>>posPageBits)+1)}
}

// page materializes page pi.
func (pt *posTable) page(pi uint32) []int32 {
	pg := make([]int32, posPageSize)
	pt.pages[pi] = pg
	return pg
}

// set records datum d at position pos and returns the previous position
// (0 if unseen).
func (pt *posTable) set(d uint32, pos int32) int32 {
	pg := pt.pages[d>>posPageBits]
	if pg == nil {
		pg = pt.page(d >> posPageBits)
	}
	prev := pg[d&posPageMask]
	pg[d&posPageMask] = pos
	return prev
}

// get returns datum d's recorded position (0 if unseen).
func (pt *posTable) get(d uint32) int32 {
	pg := pt.pages[d>>posPageBits]
	if pg == nil {
		return 0
	}
	return pg[d&posPageMask]
}

// each calls fn for every datum with a recorded position.
func (pt *posTable) each(fn func(d uint32, pos int32)) {
	for pi, pg := range pt.pages {
		if pg == nil {
			continue
		}
		base := uint32(pi) << posPageBits
		for off, p := range pg {
			if p != 0 {
				fn(base|uint32(off), p)
			}
		}
	}
}
