// Package reuse measures the time-based and distance-based reuse metrics of
// a memory trace: the reuse-time histogram that drives the HOTL footprint
// formula (paper §III), and exact LRU stack distances (reuse distances) that
// give the ground-truth miss-ratio curve of a fully-associative LRU cache.
package reuse

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
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
// When every multiplicity is 1 — always so for the first- and last-access
// histograms, where each datum has exactly one of each — sufCnt is nil as
// well and sufCount derives it as len(values)−i, which drops a third of a
// profile's memory.
type TailSum struct {
	values []int64 // sorted ascending, unique
	sufCnt []int64 // sufCnt[i] = Σ_{j>=i} count(values[j]); nil if all counts are 1
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

// NewTailSumSorted builds a TailSum from parallel slices: values strictly
// ascending and positive, counts[i] > 0 the multiplicity of values[i]; a
// nil counts means every multiplicity is 1. It is the one place suffix
// sums are built — NewTailSum, the profiling scans and the profile reader
// all end here. The TailSum keeps values as its own storage, so the
// caller must not modify it afterwards; counts is only read. It panics on
// input that breaks the contract.
func NewTailSumSorted(values, counts []int64) TailSum {
	if counts != nil && len(values) != len(counts) {
		panic(fmt.Sprintf("reuse: %d TailSum values but %d counts", len(values), len(counts)))
	}
	ts := TailSum{
		values: values,
		sufSum: make([]int64, len(values)+1),
	}
	unit := true
	for i := len(values) - 1; i >= 0; i-- {
		v, c := values[i], int64(1)
		if counts != nil {
			c = counts[i]
		}
		if v <= 0 || c <= 0 || (i > 0 && values[i-1] >= v) {
			panic(fmt.Sprintf("reuse: TailSum entry %d (value %d, count %d) is not a positive count at a positive, strictly ascending value", i, v, c))
		}
		unit = unit && c == 1
		ts.sufSum[i] = ts.sufSum[i+1] + v*c
	}
	if !unit {
		ts.sufCnt = make([]int64, len(values)+1)
		for i := len(values) - 1; i >= 0; i-- {
			ts.sufCnt[i] = ts.sufCnt[i+1] + counts[i]
		}
	}
	return ts
}

// sufCount returns Σ_{j>=i} count(values[j]), for i in [0, len(values)].
// It is the one reader of sufCnt, and the only code that knows a nil
// sufCnt means every count is 1.
func (ts *TailSum) sufCount(i int) int64 {
	if ts.sufCnt == nil {
		return int64(len(ts.values) - i)
	}
	return ts.sufCnt[i]
}

// Total returns the total multiplicity of the multiset.
func (ts TailSum) Total() int64 { return ts.sufCount(0) }

// Excess returns Σ_v max(0, v-w)·count(v).
func (ts TailSum) Excess(w int64) int64 {
	e, _ := ts.ExcessIn(w, 0, len(ts.values))
	return e
}

// CountGreater returns Σ_{v>w} count(v).
func (ts TailSum) CountGreater(w int64) int64 {
	return ts.sufCount(ts.split(w, 0, len(ts.values)))
}

// ExcessIn returns Excess(w) together with w's split, the index of the
// first stored value greater than w (Len() when there is none), searching
// only the index range [lo, hi]. The caller guarantees the split lies in
// that range, and any such range yields the same exact integer as the
// full-range search. Splits are non-decreasing in w, so the splits of two
// windows bracket the split of every window between them, and the split
// of w+1 lies in [s, min(s+1, Len())] where s is the split of w: values
// are integers, so at most the one value equal to w+1 falls between them.
//
// ExcessIn takes a pointer so hot loops share one TailSum instead of
// copying its three slice headers per query.
func (ts *TailSum) ExcessIn(w int64, lo, hi int) (excess int64, split int) {
	i := ts.split(w, lo, hi)
	return ts.sufSum[i] - w*ts.sufCount(i), i
}

// split is TailSum's one search: the first index in [lo, hi) whose value
// exceeds w, or hi when none does. It equals the full-range split whenever
// that split lies in [lo, hi].
func (ts *TailSum) split(w int64, lo, hi int) int {
	for lo < hi {
		h := int(uint(lo+hi) >> 1)
		if ts.values[h] > w {
			hi = h
		} else {
			lo = h + 1
		}
	}
	return lo
}

// Each calls fn for every (value, count) pair in ascending value order.
// It is the export half of NewTailSumSorted, used to serialize profiles.
func (ts TailSum) Each(fn func(value, count int64)) {
	for i, v := range ts.values {
		fn(v, ts.sufCount(i)-ts.sufCount(i+1))
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
// uint32 — so the per-datum last-position table is a two-level paged
// array (posTable) instead of a map, and the histograms are built
// sparsely (scanner). The resulting TailSums are field-for-field identical
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
	s := newScanner(0, len(t))
	s.scan(t)
	return s.profile()
}

// streamChunk is how many accesses CollectStream draws from its
// generator per scan call: 16 KB of IDs, which stay in L1 between the
// two.
const streamChunk = 1 << 12

// CollectStream profiles the next n accesses of g in one pass: the same
// Profile as Collect(trace.Generate(g, n)), field for field, without
// materializing the trace. Accesses are drawn a chunk at a time into one
// small buffer and fed to Collect's scan kernel. It panics if n < 1.
func CollectStream(g trace.Generator, n int) Profile {
	if n < 1 {
		panic("reuse: cannot profile an empty trace")
	}
	if int64(n) >= math.MaxInt32 {
		return CollectReference(trace.Generate(g, n))
	}
	s := newScanner(0, n)
	buf := make([]uint32, min(n, streamChunk))
	for left := n; left > 0; left -= len(buf) {
		buf = buf[:min(left, len(buf))]
		trace.Fill(g, buf)
		s.scan(buf)
	}
	return s.profile()
}

// scanner is the one profiling kernel, shared by Collect, CollectStream
// and CollectParallel's shards. It consumes a run of n accesses at
// positions start+1 … start+n, one chunk at a time, and histograms them
// without a dense pass over any length-n array:
//
//   - reuse times go to a dense count array whose non-zero entries are
//     marked in a bitmap, so the TailSum is built in O(k + n/64) for k
//     distinct reuse times;
//   - every datum has exactly one first access and positions arrive in
//     ascending order, so the first-access histogram is the list of
//     positions where the datum was unseen;
//   - the last-access histogram is read off the position table at the
//     end (profile).
type scanner struct {
	pt     posTable
	pos    int32   // position of the last access scanned
	n      int32   // accesses in the run
	reuse  []int32 // reuse[v] = pairs with reuse time v
	reused bitset  // bit v set iff reuse[v] != 0
	first  []int32 // first-access positions, ascending
}

// newScanner returns a scanner for the n accesses at positions start+1
// … start+n. Reuse times inside the run are below n.
func newScanner(start, n int) *scanner {
	return &scanner{
		pos:    int32(start),
		n:      int32(n),
		reuse:  make([]int32, n),
		reused: newBitset(n),
	}
}

// scan consumes the next len(chunk) accesses.
func (s *scanner) scan(chunk []uint32) {
	pos, reuse, reused := s.pos, s.reuse, s.reused
	for _, d := range chunk {
		pos++
		pg := s.pt.page(d)
		prev := pg[d&posPageMask]
		pg[d&posPageMask] = pos
		if prev != 0 {
			r := uint32(pos - prev)
			if reuse[r] == 0 {
				reused.set(r)
			}
			reuse[r]++
		} else {
			s.first = append(s.first, pos)
		}
	}
	s.pos = pos
}

// addReuse records c reuse pairs of time r.
func (s *scanner) addReuse(r, c int32) {
	s.reuse[r] += c
	s.reused.set(uint32(r))
}

// profile builds the Profile of a whole trace of n accesses, once the
// scanner holds all of it: every datum's last position in pt, every
// first-access position in first and every reuse pair in reuse — after
// a scanner started at position 0 has scanned all n accesses, or after
// CollectParallel's merge has filled one. Every TailSum slice is
// allocated at its exact final length: k from the bitmap's popcount, m
// from the first-access list.
func (s *scanner) profile() Profile {
	n, m := int64(s.n), int64(len(s.first))
	// Last positions, one bit each, read from the top down: the reverse
	// last-access time n−p+1 ascends as p descends.
	lastPos := newBitset(int(s.n) + 1)
	s.pt.each(func(_ uint32, p int32) { lastPos.set(uint32(p)) })
	last := make([]int64, 0, m)
	for w := len(lastPos) - 1; w >= 0; w-- {
		for x := lastPos[w]; x != 0; {
			b := 63 - bits.LeadingZeros64(x)
			x &^= 1 << b
			last = append(last, n-int64(w<<6|b)+1)
		}
	}
	first := make([]int64, m)
	for i, p := range s.first {
		first[i] = int64(p)
	}
	k := s.reused.count()
	values, counts := make([]int64, 0, k), make([]int64, 0, k)
	s.reused.each(func(v uint32) {
		values = append(values, int64(v))
		counts = append(counts, int64(s.reuse[v]))
	})
	return Profile{
		N:     n,
		M:     m,
		Reuse: NewTailSumSorted(values, counts),
		First: NewTailSumSorted(first, nil),
		Last:  NewTailSumSorted(last, nil),
	}
}

// bitset is a fixed-size bitmap over [0, 64·len).
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)>>6) }

func (b bitset) set(i uint32) { b[i>>6] |= 1 << (i & 63) }

// count returns the number of set bits.
func (b bitset) count() int {
	c := 0
	for _, w := range b {
		c += bits.OnesCount64(w)
	}
	return c
}

// each calls fn for every set bit in ascending order.
func (b bitset) each(fn func(i uint32)) {
	for w, x := range b {
		for x != 0 {
			t := bits.TrailingZeros64(x)
			x &= x - 1
			fn(uint32(w<<6 | t))
		}
	}
}

// posTable maps uint32 datum IDs to 1-based access positions through a
// two-level paged array: O(1) hash-free lookup, with memory proportional to
// the ID pages actually touched (region-based traces touch contiguous IDs,
// so pages fill densely). Position 0 means "never seen". The page index
// grows on demand, so no pass over the IDs is needed to size it.
type posTable struct {
	pages [][]int32
}

const (
	posPageBits = 14
	posPageSize = 1 << posPageBits
	posPageMask = posPageSize - 1
)

// page returns datum d's page, materializing it if needed.
func (pt *posTable) page(d uint32) []int32 {
	pi := d >> posPageBits
	if pi < uint32(len(pt.pages)) {
		if pg := pt.pages[pi]; pg != nil {
			return pg
		}
	}
	return pt.grow(pi)
}

// grow materializes page pi, first extending the page index to cover
// it.
func (pt *posTable) grow(pi uint32) []int32 {
	if pi >= uint32(len(pt.pages)) {
		pages := make([][]int32, max(int(pi)+1, 2*len(pt.pages)))
		copy(pages, pt.pages)
		pt.pages = pages
	}
	pg := make([]int32, posPageSize)
	pt.pages[pi] = pg
	return pg
}

// set records datum d at position pos and returns the previous position
// (0 if unseen).
func (pt *posTable) set(d uint32, pos int32) int32 {
	pg := pt.page(d)
	prev := pg[d&posPageMask]
	pg[d&posPageMask] = pos
	return prev
}

// get returns datum d's recorded position (0 if unseen).
func (pt *posTable) get(d uint32) int32 {
	pi := d >> posPageBits
	if pi >= uint32(len(pt.pages)) || pt.pages[pi] == nil {
		return 0
	}
	return pt.pages[pi][d&posPageMask]
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
