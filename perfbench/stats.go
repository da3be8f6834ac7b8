package main

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"time"
)

// percentile returns the p-th percentile (0 < p <= 100) of xs by the
// nearest-rank rule: the smallest sample with at least p% of the samples
// at or below it. It returns 0 for an empty slice and leaves xs unchanged.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return sortedPercentile(s, p)
}

func sortedPercentile(s []float64, p float64) float64 {
	rank := min(max(nearestRank(p, len(s)), 1), len(s))
	return s[rank-1]
}

// nearestRank returns the 1-based rank of the p-th percentile of n
// samples, ceil(p/100·n), with the product's rounding error removed
// (99.9/100·10000 is 9990.000000000002 in floating point).
func nearestRank(p float64, n int) int {
	return int(math.Ceil(p/100*float64(n) - 1e-9))
}

// tailLadder is the set of percentiles a tail is reported at, highest
// first.
var tailLadder = []float64{99.9, 99, 95, 90, 80, 75, 50}

// tailPercentile returns the highest percentile of tailLadder that leaves
// at least ten of n samples strictly beyond it, so a reported tail always
// rests on ten or more observations. With fewer than twenty samples no
// tail qualifies and the median (50) is returned.
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		// Samples beyond the nearest-rank p-th percentile.
		if beyond := n - nearestRank(p, n); beyond >= 10 {
			return p
		}
	}
	return 50
}

// summary is a latency sample's median and tail, with the percentile the
// tail was taken at and the sample count.
type summary struct {
	N      int
	P50    float64
	TailP  float64
	Tail   float64
	Values []float64 // sorted copy
}

func summarize(xs []float64) summary {
	s := slices.Clone(xs)
	slices.Sort(s)
	out := summary{N: len(s), Values: s, TailP: tailPercentile(len(s))}
	if len(s) > 0 {
		out.P50 = sortedPercentile(s, 50)
		out.Tail = sortedPercentile(s, out.TailP)
	}
	return out
}

// ladder renders the sample's percentiles from the median up, with the
// sample count, for the human-readable run summary.
func (s summary) ladder() string {
	var b strings.Builder
	for _, p := range []float64{50, 75, 90, 95, 99, 99.9} {
		fmt.Fprintf(&b, "p%g %.3f ", p, s.at(p))
	}
	fmt.Fprintf(&b, "ms (n=%d, tail p%g)", s.N, s.TailP)
	return b.String()
}

// at returns the p-th percentile of the summarized sample.
func (s summary) at(p float64) float64 {
	if len(s.Values) == 0 {
		return 0
	}
	return sortedPercentile(s.Values, p)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func median(xs []float64) float64 { return percentile(xs, 50) }
