// Package footprint implements the higher-order theory of locality (HOTL)
// metrics of the paper's §III: the average footprint fp(w), fill time
// ft(c) = fp⁻¹(c), inter-miss time im(c) = ft(c+1) − ft(c), and miss ratio
// mr(c) = 1/im(c) = fp(ft(c)+1) − c.
//
// The average footprint is computed exactly from the reuse-time histogram
// in closed form. For a trace of n accesses to m distinct data,
//
//	fp(w) = m − [ Σ_{t>w} (t−w)·freq(t)
//	            + Σ_k max(0, f_k−w)
//	            + Σ_k max(0, l_k−w) ] / (n−w+1)
//
// where freq is the reuse-time histogram, f_k the first-access time of
// datum k, and l_k = n − last_k + 1 its reverse last-access time. The three
// sums are answered in O(log n) by reuse.TailSum, so a full miss-ratio
// curve costs O(C log² n) instead of the O(n·C) of direct window counting.
package footprint

import (
	"context"
	"fmt"
	"math"

	"partitionshare/internal/reuse"
	"partitionshare/internal/trace"
)

// Footprint evaluates the HOTL metrics of one program's trace. The zero
// value is not usable; build one with New or FromTrace.
type Footprint struct {
	p reuse.Profile
}

// New wraps a reuse profile for footprint evaluation.
func New(p reuse.Profile) Footprint {
	if p.N <= 0 {
		panic("footprint: profile has no accesses")
	}
	return Footprint{p: p}
}

// FromTrace profiles the trace and wraps it.
func FromTrace(t trace.Trace) Footprint { return New(reuse.Collect(t)) }

// FromTraceParallel is FromTrace with the profiling scan sharded across
// workers (reuse.CollectParallel); the resulting footprint is bit-identical
// to FromTrace's. workers <= 0 uses all CPUs. It returns reuse.ErrEmptyTrace
// on an empty trace and ctx.Err() if cancelled mid-scan.
func FromTraceParallel(ctx context.Context, t trace.Trace, workers int) (Footprint, error) {
	p, err := reuse.CollectParallel(ctx, t, workers)
	if err != nil {
		return Footprint{}, err
	}
	return New(p), nil
}

// N returns the trace length.
func (f Footprint) N() int64 { return f.p.N }

// M returns the number of distinct data (the footprint of the whole trace).
func (f Footprint) M() int64 { return f.p.M }

// AtInt returns fp(w) for an integer window length. fp(0) = 0,
// fp(w >= n) = m.
func (f Footprint) AtInt(w int64) float64 {
	t := newTails(&f.p)
	d, _ := t.deficit(w)
	return t.fp(w, d)
}

// At returns fp(w) for a real-valued window length, linearly interpolating
// between integer window lengths. Fractional windows arise from footprint
// stretching in co-run composition (paper Eq. 9).
func (f Footprint) At(w float64) float64 {
	if w <= 0 {
		return 0
	}
	if w >= float64(f.p.N) {
		return float64(f.p.M)
	}
	lo := math.Floor(w)
	frac := w - lo
	t := newTails(&f.p)
	flo, fhi := t.fpPair(int64(lo))
	if frac == 0 {
		return flo
	}
	return flo + frac*(fhi-flo)
}

// FillTime returns ft(c), the (real-valued) window length at which the
// average footprint reaches c blocks: the smallest w with fp(w) = c, using
// linear interpolation. It panics if c is negative and returns +Inf when
// c exceeds the total footprint m.
func (f Footprint) FillTime(c float64) float64 {
	if c < 0 {
		panic(fmt.Sprintf("footprint: negative cache size %v", c))
	}
	if c == 0 {
		return 0
	}
	if c > float64(f.p.M) {
		return math.Inf(1)
	}
	// Binary search for the smallest integer w with fp(w) >= c. Each probe
	// narrows the window range [lo−1, hi] still in play, and its splits
	// narrow the index brackets the later probes search.
	t := newTails(&f.p)
	lo, hi := int64(0), f.p.N
	for lo < hi {
		mid := (lo + hi) / 2
		d, split := t.deficit(mid)
		if t.fp(mid, d) >= c {
			hi = mid
			t.hi = split
		} else {
			lo = mid + 1
			t.lo = split
		}
	}
	flo, fhi := t.fpPair(lo - 1)
	if fhi <= flo {
		return float64(lo)
	}
	return float64(lo-1) + (c-flo)/(fhi-flo)
}

// tails evaluates fp from a profile's three HOTL tail sums — reuse,
// first-access and reverse last-access times. For each tail sum k it
// keeps an index bracket [lo[k], hi[k]] that contains the split
// (reuse.TailSum.ExcessIn) of every window the caller will still query;
// splits are non-decreasing in the window, so a probe's splits bound
// every window on its side.
type tails struct {
	n, m   int64
	ts     [3]*reuse.TailSum
	lo, hi [3]int
}

// newTails returns p's tail sums with full-range brackets.
func newTails(p *reuse.Profile) tails {
	t := tails{n: p.N, m: p.M, ts: [3]*reuse.TailSum{&p.Reuse, &p.First, &p.Last}}
	for k, ts := range t.ts {
		t.hi[k] = ts.Len()
	}
	return t
}

// deficit returns the HOTL deficit at window w — the sum of the three
// excesses, the numerator of fp's correction term — and w's split in each
// tail sum, searching each within its bracket.
func (t *tails) deficit(w int64) (d int64, split [3]int) {
	for k, ts := range t.ts {
		e, s := ts.ExcessIn(w, t.lo[k], t.hi[k])
		d += e
		split[k] = s
	}
	return d, split
}

// fpPair returns fp(w) and fp(w+1) with one search per tail sum: w+1's
// split is w's split s or the next index, a one-step search.
func (t *tails) fpPair(w int64) (float64, float64) {
	var d0, d1 int64
	for k, ts := range t.ts {
		e0, s := ts.ExcessIn(w, t.lo[k], t.hi[k])
		e1, _ := ts.ExcessIn(w+1, s, min(s+1, ts.Len()))
		d0 += e0
		d1 += e1
	}
	return t.fp(w, d0), t.fp(w+1, d1)
}

// fp returns fp(w) given the deficit at w; the deficit is ignored at the
// boundaries fp(w <= 0) = 0 and fp(w >= n) = m.
func (t *tails) fp(w, deficit int64) float64 {
	switch {
	case w <= 0:
		return 0
	case w >= t.n:
		return float64(t.m)
	}
	return float64(t.m) - float64(deficit)/float64(t.n-w+1)
}

// MissRatio returns the HOTL miss ratio mr(c) = fp(ft(c)+1) − c for a
// fully-associative LRU cache of c blocks (paper Eq. 10). For c at or above
// the total footprint m the only misses are cold, so mr = m/n; this matches
// the stack-distance (ground-truth) curve, which counts cold misses.
func (f Footprint) MissRatio(c float64) float64 {
	if c < 0 {
		panic(fmt.Sprintf("footprint: negative cache size %v", c))
	}
	if c >= float64(f.p.M) {
		return float64(f.p.M) / float64(f.p.N)
	}
	w := f.FillTime(c)
	mr := f.At(w+1) - c
	if mr < 0 {
		return 0
	}
	if mr > 1 {
		return 1
	}
	return mr
}

// InterMissTime returns im(c) = ft(c+1) − ft(c), the expected number of
// accesses between consecutive misses at cache size c (paper Eq. 7). It is
// +Inf when c+1 exceeds the total footprint.
func (f Footprint) InterMissTime(c float64) float64 {
	return f.FillTime(c+1) - f.FillTime(c)
}

// MissRatioWindow returns the miss ratio averaged over the cache-size
// window [c−dc/2, c+dc/2]: (hi−lo)/(ft(hi)−ft(lo)), the harmonic-mean
// smoothing of mr over dc blocks. For an exact full-trace profile and
// small dc it coincides with MissRatio; for sampled profiles — whose
// footprint is a staircase with steps the size of the inverse sampling
// rate — the windowed secant is the meaningful local derivative. dc <= 0
// falls back to MissRatio.
func (f Footprint) MissRatioWindow(c, dc float64) float64 {
	return f.missRatioWindow(c, dc, f.FillTime)
}

// MissRatioWindowCurve returns r with r[u] = MissRatioWindow(u·step, step)
// for u = 0..units: the miss ratio smoothed over one step around each
// sample point. Adjacent windows share an edge, so each edge's fill time
// is computed once. It panics if units or step is not positive.
func (f Footprint) MissRatioWindowCurve(units int, step int64) []float64 {
	if units <= 0 || step <= 0 {
		panic(fmt.Sprintf("footprint: invalid curve parameters units=%d step=%d", units, step))
	}
	out := make([]float64, units+1)
	// A one-entry memo: window u's lower edge is window u−1's upper edge,
	// the same float, so it hits on every window after the first.
	edge, edgeFt := math.NaN(), 0.0
	ft := func(c float64) float64 {
		if c != edge { //vetkit:ignore(floatcmp): memo key — FillTime is a pure function of c, so only a bit-equal c may reuse its result
			edge, edgeFt = c, f.FillTime(c)
		}
		return edgeFt
	}
	for u := range out {
		out[u] = f.missRatioWindow(float64(int64(u)*step), float64(step), ft)
	}
	return out
}

// missRatioWindow is MissRatioWindow with the window edges' fill times
// taken from ft, which must agree with FillTime.
func (f Footprint) missRatioWindow(c, dc float64, ft func(float64) float64) float64 {
	if dc <= 0 {
		return f.MissRatio(c)
	}
	if c < 0 {
		panic(fmt.Sprintf("footprint: negative cache size %v", c))
	}
	m := float64(f.p.M)
	if c >= m {
		return f.MissRatio(c)
	}
	lo := c - dc/2
	if lo < 0 {
		lo = 0
	}
	hi := c + dc/2
	if hi > m {
		hi = m
	}
	if hi-lo < 1e-12 {
		return f.MissRatio(c)
	}
	w1, w2 := ft(lo), ft(hi)
	if math.IsInf(w2, 1) || w2 <= w1 {
		return f.MissRatio(c)
	}
	mr := (hi - lo) / (w2 - w1)
	if mr < 0 {
		return 0
	}
	if mr > 1 {
		return 1
	}
	return mr
}

// MissRatioCurve samples mr at integer cache sizes 0..maxC in steps of
// step blocks, returning a slice r with r[i] = mr(i*step). It panics if
// step or maxC is not positive.
func (f Footprint) MissRatioCurve(maxC, step int64) []float64 {
	if step <= 0 || maxC <= 0 {
		panic(fmt.Sprintf("footprint: invalid curve parameters maxC=%d step=%d", maxC, step))
	}
	out := make([]float64, maxC/step+1)
	for i := range out {
		out[i] = f.MissRatio(float64(int64(i) * step))
	}
	return out
}

// BruteForceFp computes the exact average footprint fp(w) of a trace by
// direct enumeration of all n−w+1 windows using a sliding window, in O(n)
// per window length. It exists to validate the closed-form formula and is
// exported for tests and examples only.
func BruteForceFp(t trace.Trace, w int) float64 {
	n := len(t)
	if w <= 0 {
		return 0
	}
	if w >= n {
		return float64(trace.Trace(t).DistinctData())
	}
	counts := make(map[uint32]int, 1024)
	distinct := 0
	var total int64
	for i, d := range t {
		if counts[d] == 0 {
			distinct++
		}
		counts[d]++
		if i >= w {
			old := t[i-w]
			counts[old]--
			if counts[old] == 0 {
				distinct--
			}
		}
		if i >= w-1 {
			total += int64(distinct)
		}
	}
	return float64(total) / float64(n-w+1)
}
