package footprint

import (
	"math"
	"math/rand/v2"
	"strings"
	"testing"
	"testing/quick"

	"partitionshare/internal/reuse"
	"partitionshare/internal/trace"
)

func randomTrace(seed uint64, n, pool int) trace.Trace {
	rng := rand.New(rand.NewPCG(seed, seed+1))
	t := make(trace.Trace, n)
	for i := range t {
		t[i] = uint32(rng.IntN(pool))
	}
	return t
}

// The closed-form fp(w) must match brute-force window enumeration exactly
// (up to float rounding) for every window length, on a variety of traces.
func TestClosedFormMatchesBruteForce(t *testing.T) {
	traces := []trace.Trace{
		{0, 1, 0},                                      // tiny
		trace.Generate(trace.NewLoop(5, 1), 23),        // cyclic
		trace.Generate(trace.NewStreaming(1), 17),      // streaming
		trace.Generate(trace.NewStreaming(3), 31),      // streaming w/ repeat
		trace.Generate(trace.NewSawtooth(6), 40),       // sawtooth
		randomTrace(7, 120, 10),                        // random
		randomTrace(8, 200, 50),                        // sparser random
		trace.Generate(trace.NewZipf(30, 1.0, 5), 150), // zipf
	}
	for ti, tr := range traces {
		fp := FromTrace(tr)
		for w := 1; w <= len(tr); w++ {
			want := bruteForceFp(tr, w)
			got := fp.AtInt(int64(w))
			if math.Abs(got-want) > 1e-9 {
				t.Fatalf("trace %d: fp(%d) = %v, want %v", ti, w, got, want)
			}
		}
	}
}

func TestClosedFormMatchesBruteForceProperty(t *testing.T) {
	f := func(seed uint64, poolRaw uint8) bool {
		pool := int(poolRaw%40) + 1
		tr := randomTrace(seed, 80, pool)
		fp := FromTrace(tr)
		for w := 1; w <= 80; w += 7 {
			if math.Abs(fp.AtInt(int64(w))-bruteForceFp(tr, w)) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestFpBoundaries(t *testing.T) {
	tr := randomTrace(1, 100, 10)
	fp := FromTrace(tr)
	if got := fp.AtInt(0); got != 0 {
		t.Errorf("fp(0) = %v, want 0", got)
	}
	if got := fp.AtInt(int64(len(tr))); got != float64(tr.DistinctData()) {
		t.Errorf("fp(n) = %v, want %v", got, tr.DistinctData())
	}
	if got := fp.AtInt(1); got != 1 {
		t.Errorf("fp(1) = %v, want 1", got)
	}
	if got := fp.At(1e18); got != float64(fp.M()) {
		t.Errorf("fp(huge) = %v, want m", got)
	}
}

func TestFpMonotoneNondecreasing(t *testing.T) {
	f := func(seed uint64) bool {
		tr := randomTrace(seed, 150, 12)
		fp := FromTrace(tr)
		prev := 0.0
		for w := int64(0); w <= fp.N(); w++ {
			cur := fp.AtInt(w)
			if cur < prev-1e-9 {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestInterpolation(t *testing.T) {
	tr := randomTrace(2, 100, 8)
	fp := FromTrace(tr)
	a, b := fp.AtInt(10), fp.AtInt(11)
	got := fp.At(10.5)
	want := (a + b) / 2
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("At(10.5) = %v, want %v", got, want)
	}
	if fp.At(10) != a {
		t.Errorf("At(10) = %v, want AtInt(10) = %v", fp.At(10), a)
	}
}

func TestFillTimeInvertsFp(t *testing.T) {
	tr := randomTrace(3, 300, 20)
	fp := FromTrace(tr)
	for c := 0.5; c < float64(fp.M()); c += 0.7 {
		w := fp.FillTime(c)
		if got := fp.At(w); math.Abs(got-c) > 1e-6 {
			t.Fatalf("fp(ft(%v)) = %v, want %v (w=%v)", c, got, c, w)
		}
	}
	if fp.FillTime(0) != 0 {
		t.Error("ft(0) != 0")
	}
	if !math.IsInf(fp.FillTime(float64(fp.M())+1), 1) {
		t.Error("ft(m+1) should be +Inf")
	}
}

// A negative or NaN cache size panics in every query that takes one; a
// plain c < 0 guard lets NaN through.
func TestFillTimePanicsOnNegative(t *testing.T) {
	fp := FromTrace(trace.Trace{0, 1})
	nan := math.NaN()
	for _, tc := range []struct {
		name string
		f    func()
	}{
		{"FillTime(-1)", func() { fp.FillTime(-1) }},
		{"FillTime(NaN)", func() { fp.FillTime(nan) }},
		{"MissRatio(-1)", func() { fp.MissRatio(-1) }},
		{"MissRatio(NaN)", func() { fp.MissRatio(nan) }},
		{"MissRatioWindow(-1, 1)", func() { fp.MissRatioWindow(-1, 1) }},
		{"MissRatioWindow(NaN, 1)", func() { fp.MissRatioWindow(nan, 1) }},
	} {
		func() {
			defer func() {
				r := recover()
				if msg, _ := r.(string); !strings.Contains(msg, "negative or NaN cache size") {
					t.Errorf("%s: panic = %v, want a negative or NaN cache size panic", tc.name, r)
				}
			}()
			tc.f()
		}()
	}
}

func TestStreamingMissRatioIsOne(t *testing.T) {
	// Pure streaming: every access is a miss at any cache size below m.
	tr := trace.Generate(trace.NewStreaming(1), 1000)
	fp := FromTrace(tr)
	for _, c := range []float64{1, 10, 100, 500} {
		if got := fp.MissRatio(c); math.Abs(got-1) > 0.01 {
			t.Errorf("streaming mr(%v) = %v, want ~1", c, got)
		}
	}
}

func TestStreamingWithRepeatMissRatio(t *testing.T) {
	// Repeat=4: one miss per 4 accesses.
	tr := trace.Generate(trace.NewStreaming(4), 4000)
	fp := FromTrace(tr)
	if got := fp.MissRatio(100); math.Abs(got-0.25) > 0.01 {
		t.Errorf("mr(100) = %v, want ~0.25", got)
	}
}

func TestLoopMissRatioCliff(t *testing.T) {
	// Loop over k blocks: mr ~1 below k, cold-only at or above k.
	k := int64(50)
	tr := trace.Generate(trace.NewLoop(uint32(k), 1), 5000)
	fp := FromTrace(tr)
	if got := fp.MissRatio(float64(k) / 2); got < 0.95 {
		t.Errorf("mr(k/2) = %v, want ~1", got)
	}
	coldRate := float64(k) / 5000
	if got := fp.MissRatio(float64(k)); math.Abs(got-coldRate) > 0.02 {
		t.Errorf("mr(k) = %v, want ~%v", got, coldRate)
	}
}

// The HOTL miss ratio must agree with the exact stack-distance LRU curve on
// traces satisfying the reuse-window hypothesis (uniformly random access is
// the canonical case). This is the §VII-C validation in miniature.
func TestHOTLMatchesStackDistanceMRC(t *testing.T) {
	tr := randomTrace(11, 20000, 400)
	fp := FromTrace(tr)
	hist := reuse.HistogramDistances(reuse.StackDistances(tr))
	for _, c := range []int64{10, 50, 100, 200, 300} {
		hotl := fp.MissRatio(float64(c))
		exact := hist.MissRatio(c)
		if math.Abs(hotl-exact) > 0.03 {
			t.Errorf("c=%d: HOTL mr %v vs exact %v", c, hotl, exact)
		}
	}
}

func TestMissRatioCurve(t *testing.T) {
	tr := randomTrace(4, 2000, 100)
	fp := FromTrace(tr)
	curve := fp.MissRatioCurve(120, 10)
	if len(curve) != 13 {
		t.Fatalf("curve length = %d, want 13", len(curve))
	}
	for i, v := range curve {
		if want := fp.MissRatio(float64(i * 10)); v != want {
			t.Fatalf("curve[%d] = %v, want %v", i, v, want)
		}
	}
}

func TestMissRatioCurvePanics(t *testing.T) {
	fp := FromTrace(trace.Trace{0, 1, 0})
	for _, f := range []func(){
		func() { fp.MissRatioCurve(0, 1) },
		func() { fp.MissRatioCurve(10, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestInterMissTime(t *testing.T) {
	// Streaming with repeat r: one miss per r accesses, so im(c) = r.
	tr := trace.Generate(trace.NewStreaming(5), 5000)
	fp := FromTrace(tr)
	im := fp.interMissTime(100)
	if math.Abs(im-5) > 0.2 {
		t.Errorf("im(100) = %v, want ~5", im)
	}
	// mr(c) == 1/im(c) (paper Eq. 8) up to interpolation error.
	mr := fp.MissRatio(100)
	if math.Abs(mr-1/im) > 0.02 {
		t.Errorf("mr %v vs 1/im %v", mr, 1/im)
	}
}

func TestNewPanicsOnEmptyProfile(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(reuse.Profile{})
}

func BenchmarkAtInt(b *testing.B) {
	tr := randomTrace(1, 200000, 10000)
	fp := FromTrace(tr)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fp.AtInt(int64(i%200000) + 1)
	}
}

func BenchmarkMissRatioCurve1024(b *testing.B) {
	tr := randomTrace(1, 200000, 20000)
	fp := FromTrace(tr)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fp.MissRatioCurve(16384, 16)
	}
}

// interMissTime returns im(c) = ft(c+1) − ft(c), the expected number of
// accesses between consecutive misses at cache size c (paper Eq. 7). It is
// +Inf when c+1 exceeds the total footprint.
func (f Footprint) interMissTime(c float64) float64 {
	return f.FillTime(c+1) - f.FillTime(c)
}

// bruteForceFp computes the exact average footprint fp(w) of a trace by
// direct enumeration of all n−w+1 windows using a sliding window, in O(n)
// per window length: the oracle for the closed-form formula.
func bruteForceFp(t trace.Trace, w int) float64 {
	n := len(t)
	if w <= 0 {
		return 0
	}
	if w >= n {
		return float64(t.DistinctData())
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
