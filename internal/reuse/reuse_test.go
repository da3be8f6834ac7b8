package reuse

import (
	"math/rand/v2"
	"reflect"
	"testing"
	"testing/quick"

	"partitionshare/internal/trace"
)

// naiveStackDistances is the O(n^2) reference implementation.
func naiveStackDistances(t trace.Trace) []int64 {
	out := make([]int64, len(t))
	for i, d := range t {
		prev := -1
		for j := i - 1; j >= 0; j-- {
			if t[j] == d {
				prev = j
				break
			}
		}
		if prev < 0 {
			out[i] = ColdMiss
			continue
		}
		seen := map[uint32]struct{}{}
		for j := prev + 1; j <= i; j++ {
			seen[t[j]] = struct{}{}
		}
		out[i] = int64(len(seen))
	}
	return out
}

func randomTrace(seed uint64, n, pool int) trace.Trace {
	rng := rand.New(rand.NewPCG(seed, seed+1))
	t := make(trace.Trace, n)
	for i := range t {
		t[i] = uint32(rng.IntN(pool))
	}
	return t
}

func TestStackDistancesPaperFigure3(t *testing.T) {
	// Figure 3: trace "a a x b b y a a x b b y", reuse distances
	// "- 1 - - 1 - 4 1 4 4 1 4".
	tr := trace.Trace{0, 0, 1, 2, 2, 3, 0, 0, 1, 2, 2, 3}
	want := []int64{ColdMiss, 1, ColdMiss, ColdMiss, 1, ColdMiss, 4, 1, 4, 4, 1, 4}
	got := StackDistances(tr)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("distances = %v, want %v", got, want)
		}
	}
}

func TestStackDistancesMatchNaive(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		tr := randomTrace(seed, 300, int(seed)*3+2)
		got := StackDistances(tr)
		want := naiveStackDistances(tr)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d access %d: got %d, want %d", seed, i, got[i], want[i])
			}
		}
	}
}

func TestStackDistancesLoop(t *testing.T) {
	// A cyclic loop over k blocks: every reuse has distance exactly k.
	k := uint32(7)
	tr := trace.Generate(trace.NewLoop(k, 1), 70)
	dists := StackDistances(tr)
	for i, d := range dists {
		if i < int(k) {
			if d != ColdMiss {
				t.Fatalf("access %d: got %d, want cold", i, d)
			}
		} else if d != int64(k) {
			t.Fatalf("access %d: got %d, want %d", i, d, k)
		}
	}
}

func TestHistogramAndMissRatio(t *testing.T) {
	k := int64(5)
	tr := trace.Generate(trace.NewLoop(uint32(k), 1), 100)
	h := HistogramDistances(StackDistances(tr))
	if h.Cold != k {
		t.Fatalf("cold = %d, want %d", h.Cold, k)
	}
	// Cache of size k-1: every access misses.
	if got := h.MissRatio(k - 1); got != 1.0 {
		t.Errorf("MissRatio(%d) = %v, want 1", k-1, got)
	}
	// Cache of size k: only cold misses.
	if got := h.MissRatio(k); got != float64(k)/100 {
		t.Errorf("MissRatio(%d) = %v, want %v", k, got, float64(k)/100)
	}
}

func TestMissRatioCurveConsistent(t *testing.T) {
	tr := randomTrace(3, 500, 40)
	h := HistogramDistances(StackDistances(tr))
	curve := h.MissRatioCurve(60)
	for c := int64(0); c <= 60; c++ {
		if curve[c] != h.MissRatio(c) {
			t.Fatalf("curve[%d] = %v, want %v", c, curve[c], h.MissRatio(c))
		}
	}
}

func TestMissRatioCurveMonotone(t *testing.T) {
	f := func(seed uint64) bool {
		tr := randomTrace(seed, 400, 30)
		h := HistogramDistances(StackDistances(tr))
		curve := h.MissRatioCurve(40)
		for c := 1; c < len(curve); c++ {
			if curve[c] > curve[c-1] {
				return false
			}
		}
		return curve[0] == 1.0 // size-0 cache misses everything
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestCollectReusePairCount(t *testing.T) {
	// n accesses to m distinct data => exactly n-m reuse pairs.
	f := func(seed uint64) bool {
		tr := randomTrace(seed, 300, 25)
		p := Collect(tr)
		return p.Reuse.Total() == p.N-p.M &&
			p.First.Total() == p.M &&
			p.Last.Total() == p.M
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestCollectSimple(t *testing.T) {
	// Trace: a b a  (positions 1,2,3). Reuse: a at gap 2. First: a@1, b@2.
	// Last: a@3 => l=1; b@2 => l=2.
	tr := trace.Trace{0, 1, 0}
	p := Collect(tr)
	if p.N != 3 || p.M != 2 {
		t.Fatalf("N,M = %d,%d", p.N, p.M)
	}
	if p.Reuse.Total() != 1 || p.Reuse.Max() != 2 {
		t.Errorf("reuse hist wrong: total %d max %d", p.Reuse.Total(), p.Reuse.Max())
	}
	if p.First.Excess(0) != 3 { // 1+2
		t.Errorf("first excess(0) = %d, want 3", p.First.Excess(0))
	}
	if p.Last.Excess(0) != 3 { // 1+2
		t.Errorf("last excess(0) = %d, want 3", p.Last.Excess(0))
	}
}

func TestCollectPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on empty trace")
		}
	}()
	Collect(nil)
}

func TestTailSumAgainstBruteForce(t *testing.T) {
	hist := map[int64]int64{1: 3, 4: 2, 7: 1, 100: 5}
	ts := NewTailSum(hist)
	for w := int64(0); w <= 110; w += 3 {
		var excess, cnt int64
		for v, c := range hist {
			if v > w {
				excess += (v - w) * c
				cnt += c
			}
		}
		if got := ts.Excess(w); got != excess {
			t.Errorf("Excess(%d) = %d, want %d", w, got, excess)
		}
		if got := ts.CountGreater(w); got != cnt {
			t.Errorf("CountGreater(%d) = %d, want %d", w, got, cnt)
		}
	}
	if ts.Total() != 11 {
		t.Errorf("Total = %d, want 11", ts.Total())
	}
	if ts.Max() != 100 {
		t.Errorf("Max = %d, want 100", ts.Max())
	}
}

func TestTailSumEmpty(t *testing.T) {
	ts := NewTailSum(nil)
	if ts.Total() != 0 || ts.Excess(0) != 0 || ts.CountGreater(0) != 0 || ts.Max() != 0 {
		t.Fatal("empty TailSum should answer zeros")
	}
}

func TestTailSumSkipsZeroCounts(t *testing.T) {
	ts := NewTailSum(map[int64]int64{5: 0, 3: 2})
	if ts.Total() != 2 || ts.Max() != 3 {
		t.Fatalf("zero-count entry not skipped: total %d max %d", ts.Total(), ts.Max())
	}
}

func TestTailSumPanics(t *testing.T) {
	cases := []map[int64]int64{
		{0: 1},  // non-positive value
		{-3: 1}, // negative value
		{2: -1}, // negative count
	}
	for i, h := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			NewTailSum(h)
		}()
	}
}

// NewTailSumSorted is the constructor under NewTailSum: the same
// histogram handed to either gives field-for-field identical TailSums,
// and slices that break its contract panic.
func TestNewTailSumSorted(t *testing.T) {
	got := NewTailSumSorted([]int64{1, 4, 7, 100}, []int64{3, 2, 1, 5})
	want := NewTailSum(map[int64]int64{100: 5, 7: 1, 1: 3, 4: 2, 9: 0})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("NewTailSumSorted = %+v, NewTailSum = %+v", got, want)
	}
	cases := []struct{ values, counts []int64 }{
		{[]int64{0}, []int64{1}},       // non-positive value
		{[]int64{2, 2}, []int64{1, 1}}, // duplicate value
		{[]int64{3, 2}, []int64{1, 1}}, // descending
		{[]int64{2}, []int64{0}},       // zero count
		{[]int64{2}, []int64{1, 1}},    // length mismatch
	}
	for i, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			NewTailSumSorted(c.values, c.counts)
		}()
	}
}

func TestHistogramDistancesPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on invalid distance")
		}
	}()
	HistogramDistances([]int64{0})
}

func BenchmarkStackDistances(b *testing.B) {
	tr := randomTrace(1, 100000, 5000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		StackDistances(tr)
	}
}

func BenchmarkCollect(b *testing.B) {
	tr := randomTrace(1, 100000, 5000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Collect(tr)
	}
}
