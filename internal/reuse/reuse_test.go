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

// TestTailSumUnitCounts brute-forces every query on multisets whose
// counts are all 1 (stored without a count array), mixed, single-entry
// and empty, and pins which representation each one gets.
func TestTailSumUnitCounts(t *testing.T) {
	for _, c := range []struct {
		name           string
		values, counts []int64
		unit           bool
	}{
		{"unit", []int64{1, 2, 5, 9, 40, 41}, []int64{1, 1, 1, 1, 1, 1}, true},
		{"mixed", []int64{1, 2, 5, 9, 40, 41}, []int64{1, 1, 3, 1, 1, 7}, false},
		{"last-not-unit", []int64{3, 8}, []int64{1, 2}, false},
		{"single-unit", []int64{17}, []int64{1}, true},
		{"single-heavy", []int64{17}, []int64{4}, false},
		{"empty", []int64{}, []int64{}, true},
	} {
		ts := NewTailSumSorted(append([]int64(nil), c.values...), c.counts)
		if (ts.sufCnt == nil) != c.unit {
			t.Errorf("%s: count array present = %v, want %v", c.name, ts.sufCnt != nil, !c.unit)
		}
		var total int64
		for _, n := range c.counts {
			total += n
		}
		if got := ts.Total(); got != total {
			t.Errorf("%s: Total = %d, want %d", c.name, got, total)
		}
		for w := int64(0); w <= 45; w++ {
			var excess, cnt int64
			for i, v := range c.values {
				if v > w {
					excess += (v - w) * c.counts[i]
					cnt += c.counts[i]
				}
			}
			if got := ts.Excess(w); got != excess {
				t.Errorf("%s: Excess(%d) = %d, want %d", c.name, w, got, excess)
			}
			if got := ts.CountGreater(w); got != cnt {
				t.Errorf("%s: CountGreater(%d) = %d, want %d", c.name, w, got, cnt)
			}
		}
		var vs, cs []int64
		ts.Each(func(v, n int64) { vs, cs = append(vs, v), append(cs, n) })
		if len(vs) != len(c.values) || (len(vs) > 0 && (!reflect.DeepEqual(vs, c.values) || !reflect.DeepEqual(cs, c.counts))) {
			t.Errorf("%s: Each = %v/%v, want %v/%v", c.name, vs, cs, c.values, c.counts)
		}
	}
}

// TestTailSumRangeSearchBruteForce checks ExcessIn over every index range
// that contains the split, and the one-step range [s, min(s+1, Len())]
// that footprint searches for window w+1 given w's split s, against brute
// force on random unit-count and mixed multisets plus the
// empty and single-entry ones. Windows run from below the smallest value
// to past Max, so w+1 both lands on stored values and passes Max.
func TestTailSumRangeSearchBruteForce(t *testing.T) {
	type multiset struct {
		name           string
		values, counts []int64
	}
	sets := []multiset{
		{"empty", nil, nil},
		{"single-unit", []int64{5}, []int64{1}},
		{"single-heavy", []int64{5}, []int64{9}},
		{"adjacent", []int64{1, 2, 3, 4}, []int64{2, 1, 1, 3}},
	}
	rng := rand.New(rand.NewPCG(7, 19))
	for i := 0; i < 40; i++ {
		var values, counts []int64
		mixed := i%2 == 1
		for v := int64(1); v <= 60; v++ {
			if rng.IntN(3) == 0 {
				c := int64(1)
				if mixed {
					c = 1 + rng.Int64N(5)
				}
				values, counts = append(values, v), append(counts, c)
			}
		}
		name := "unit"
		if mixed {
			name = "mixed"
		}
		sets = append(sets, multiset{name, values, counts})
	}
	brute := func(m multiset, w int64) (excess int64, split int) {
		split = len(m.values)
		for i := len(m.values) - 1; i >= 0; i-- {
			if m.values[i] > w {
				excess += (m.values[i] - w) * m.counts[i]
				split = i
			}
		}
		return excess, split
	}
	var onValue, pastMax int
	for _, m := range sets {
		ts := NewTailSumSorted(append([]int64(nil), m.values...), m.counts)
		for w := int64(-1); w <= ts.Max()+2; w++ {
			want, split := brute(m, w)
			for lo := 0; lo <= split; lo++ {
				for hi := split; hi <= ts.Len(); hi++ {
					if got, s := ts.ExcessIn(w, lo, hi); got != want || s != split {
						t.Fatalf("%s: ExcessIn(%d, %d, %d) = %d, %d; want %d, %d", m.name, w, lo, hi, got, s, want, split)
					}
				}
			}
			wantNext, splitNext := brute(m, w+1)
			step := min(split+1, ts.Len())
			if got, s := ts.ExcessIn(w+1, split, step); got != wantNext || s != splitNext {
				t.Fatalf("%s: step ExcessIn(%d, %d, %d) = %d, %d; want %d, %d", m.name, w+1, split, step, got, s, wantNext, splitNext)
			}
			if split < ts.Len() && m.values[split] == w+1 {
				onValue++
			}
			if w+1 > ts.Max() {
				pastMax++
			}
		}
	}
	if onValue == 0 || pastMax == 0 {
		t.Fatalf("coverage: %d steps onto a stored value, %d past Max", onValue, pastMax)
	}
}

// TestCollectFirstLastHoldNoCounts: every datum has exactly one first and
// one last access, so a collected profile's First and Last take the
// count-free form.
func TestCollectFirstLastHoldNoCounts(t *testing.T) {
	p := Collect(randomTrace(7, 2000, 300))
	if p.First.sufCnt != nil || p.Last.sufCnt != nil {
		t.Errorf("First/Last hold count arrays (%d, %d entries)", len(p.First.sufCnt), len(p.Last.sufCnt))
	}
	if p.Reuse.sufCnt == nil {
		t.Error("reuse histogram with repeated times lost its count array")
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
