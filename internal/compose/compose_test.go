package compose

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"partitionshare/internal/cachesim"
	"partitionshare/internal/footprint"
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

func prog(name string, t trace.Trace, rate float64) Program {
	return Program{Name: name, Fp: footprint.FromTrace(t), Rate: rate}
}

func TestCombinedFpSingleProgram(t *testing.T) {
	p := prog("a", randomTrace(1, 2000, 100), 1)
	for _, w := range []float64{1, 10, 100, 1000} {
		if got, want := CombinedFp([]Program{p}, w), p.Fp.At(w); math.Abs(got-want) > 1e-12 {
			t.Errorf("CombinedFp(single, %v) = %v, want %v", w, got, want)
		}
	}
}

func TestCombinedFpEqualRateStretch(t *testing.T) {
	tr := randomTrace(2, 2000, 100)
	a, b := prog("a", tr, 1), prog("b", tr, 1)
	for _, w := range []float64{2, 20, 200} {
		got := CombinedFp([]Program{a, b}, w)
		want := 2 * a.Fp.At(w/2)
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("CombinedFp(w=%v) = %v, want %v", w, got, want)
		}
	}
}

func TestCombinedFpRateWeighting(t *testing.T) {
	tr := randomTrace(3, 2000, 100)
	a, b := prog("a", tr, 3), prog("b", tr, 1)
	w := 100.0
	got := CombinedFp([]Program{a, b}, w)
	want := a.Fp.At(w*0.75) + b.Fp.At(w*0.25)
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("CombinedFp = %v, want %v", got, want)
	}
}

func TestFillTimeInvertsCombinedFp(t *testing.T) {
	progs := []Program{
		prog("a", randomTrace(4, 3000, 200), 2),
		prog("b", randomTrace(5, 3000, 150), 1),
	}
	for _, c := range []float64{10, 50, 150, 300} {
		w := FillTime(progs, c)
		if got := CombinedFp(progs, w); math.Abs(got-c) > 1e-3 {
			t.Errorf("CombinedFp(FillTime(%v)) = %v", c, got)
		}
	}
	if FillTime(progs, 0) != 0 {
		t.Error("FillTime(0) != 0")
	}
	if !math.IsInf(FillTime(progs, TotalData(progs)+1), 1) {
		t.Error("FillTime beyond total data should be +Inf")
	}
}

func TestNaturalPartitionSumsToCache(t *testing.T) {
	progs := []Program{
		prog("a", randomTrace(6, 3000, 200), 1),
		prog("b", randomTrace(7, 3000, 100), 2),
		prog("c", randomTrace(8, 3000, 300), 1),
	}
	c := 250.0
	occ := NaturalPartition(progs, c)
	var sum float64
	for _, o := range occ {
		sum += o
	}
	if math.Abs(sum-c) > 1e-3 {
		t.Errorf("occupancies sum to %v, want %v", sum, c)
	}
	for i, o := range occ {
		if o <= 0 {
			t.Errorf("program %d occupancy %v <= 0", i, o)
		}
	}
}

func TestNaturalPartitionSymmetry(t *testing.T) {
	tr := randomTrace(9, 3000, 200)
	progs := []Program{prog("a", tr, 1), prog("b", tr, 1)}
	occ := NaturalPartition(progs, 150)
	if math.Abs(occ[0]-occ[1]) > 1e-6 {
		t.Errorf("identical programs should split evenly: %v", occ)
	}
}

func TestNaturalPartitionCacheBiggerThanData(t *testing.T) {
	progs := []Program{
		prog("a", randomTrace(10, 1000, 50), 1),
		prog("b", randomTrace(11, 1000, 80), 1),
	}
	occ := NaturalPartition(progs, 1e6)
	if occ[0] != float64(progs[0].Fp.M()) || occ[1] != float64(progs[1].Fp.M()) {
		t.Errorf("oversized cache: occ = %v, want full footprints (%d, %d)",
			occ, progs[0].Fp.M(), progs[1].Fp.M())
	}
}

// Core §VII-C validation in miniature: the natural partition predicts the
// occupancies a simulated shared LRU cache actually settles into.
func TestNaturalPartitionMatchesSimulatedOccupancy(t *testing.T) {
	ta := randomTrace(12, 20000, 400) // bigger working set
	tb := randomTrace(13, 20000, 150) // smaller working set
	progs := []Program{prog("a", ta, 1), prog("b", tb, 1)}
	capacity := 300
	occ := NaturalPartition(progs, float64(capacity))

	iv := trace.InterleaveProportional([]trace.Trace{ta, tb}, []float64{1, 1}, 40000)
	res := cachesim.SimulateShared(iv, capacity, 20000)
	for p := 0; p < 2; p++ {
		rel := math.Abs(occ[p]-res.MeanOccupancy[p]) / res.MeanOccupancy[p]
		if rel > 0.10 {
			t.Errorf("program %d: predicted occupancy %.1f vs simulated %.1f (%.0f%% off)",
				p, occ[p], res.MeanOccupancy[p], rel*100)
		}
	}
}

// The NPA miss-ratio prediction must track the simulated shared cache.
func TestSharedMissRatiosMatchSimulation(t *testing.T) {
	ta := randomTrace(14, 20000, 400)
	tb := randomTrace(15, 20000, 150)
	progs := []Program{prog("a", ta, 1), prog("b", tb, 1)}
	capacity := 300
	pred := SharedMissRatios(progs, float64(capacity))

	iv := trace.InterleaveProportional([]trace.Trace{ta, tb}, []float64{1, 1}, 40000)
	res := cachesim.SimulateShared(iv, capacity, 10000)
	for p := 0; p < 2; p++ {
		if math.Abs(pred[p]-res.MissRatio(p)) > 0.04 {
			t.Errorf("program %d: predicted mr %.4f vs simulated %.4f", p, pred[p], res.MissRatio(p))
		}
	}
	groupPred := SharedGroupMissRatio(progs, float64(capacity))
	if math.Abs(groupPred-res.GroupMissRatio()) > 0.04 {
		t.Errorf("group: predicted %.4f vs simulated %.4f", groupPred, res.GroupMissRatio())
	}
}

func TestSharedGroupMissRatioDirectAgrees(t *testing.T) {
	progs := []Program{
		prog("a", randomTrace(16, 10000, 300), 2),
		prog("b", randomTrace(17, 10000, 200), 1),
	}
	for _, c := range []float64{50, 150, 350} {
		viaOcc := SharedGroupMissRatio(progs, c)
		direct := sharedGroupMissRatioDirect(progs, c)
		if math.Abs(viaOcc-direct) > 0.01 {
			t.Errorf("c=%v: via occupancies %.5f vs direct %.5f", c, viaOcc, direct)
		}
	}
}

func TestRoundToUnitsExactSum(t *testing.T) {
	occ := []float64{100.4, 200.3, 50.3} // 351 blocks = 2.74 units of 128
	got := RoundToUnits(occ, 3, 128)
	sum := 0
	for _, u := range got {
		sum += u
	}
	if sum != 3 {
		t.Fatalf("units sum to %d, want 3: %v", sum, got)
	}
}

func TestRoundToUnitsLargestRemainder(t *testing.T) {
	// 1.9 and 0.1 units with 2 units available: want [2, 0].
	got := RoundToUnits([]float64{243.2, 12.8}, 2, 128)
	if got[0] != 2 || got[1] != 0 {
		t.Fatalf("RoundToUnits = %v, want [2 0]", got)
	}
}

func TestRoundToUnitsOvershootTrims(t *testing.T) {
	// Occupancies exceeding cache (4 units requested, 3 available).
	got := RoundToUnits([]float64{256, 256}, 3, 128)
	sum := 0
	for _, u := range got {
		sum += u
	}
	if sum != 3 {
		t.Fatalf("units sum to %d, want 3: %v", sum, got)
	}
}

func TestNaturalPartitionUnits(t *testing.T) {
	progs := []Program{
		prog("a", randomTrace(18, 5000, 512), 1),
		prog("b", randomTrace(19, 5000, 256), 1),
	}
	units := NaturalPartitionUnits(progs, 4, 128)
	sum := 0
	for _, u := range units {
		sum += u
	}
	if sum != 4 {
		t.Fatalf("units = %v, sum %d, want 4", units, sum)
	}
	// The larger-working-set program should get at least as much.
	if units[0] < units[1] {
		t.Errorf("units = %v; program with larger working set got less", units)
	}
}

func TestPanics(t *testing.T) {
	p := prog("a", randomTrace(20, 100, 10), 1)
	bad := prog("b", randomTrace(21, 100, 10), 0)
	for i, f := range []func(){
		func() { CombinedFp(nil, 1) },
		func() { CombinedFp([]Program{bad}, 1) },
		func() { FillTime([]Program{p}, -1) },
		func() { NaturalPartitionUnits([]Program{p}, 0, 128) },
		func() { NaturalPartitionUnits([]Program{p}, 4, 0) },
	} {
		mustPanic(t, fmt.Sprint("case ", i), f)
	}
}

// TestNonFiniteInputsPanic checks that NaN and infinite rates, and a NaN
// cache size, panic instead of yielding NaN occupancies or garbage units.
func TestNonFiniteInputsPanic(t *testing.T) {
	p := prog("a", randomTrace(22, 100, 10), 1)
	for _, rate := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		q := prog("q", randomTrace(23, 100, 10), rate)
		for name, f := range map[string]func(){
			"CombinedFp":            func() { CombinedFp([]Program{p, q}, 10) },
			"FillTime":              func() { FillTime([]Program{p, q}, 10) },
			"NaturalPartition":      func() { NaturalPartition([]Program{p, q}, 10) },
			"NaturalPartitionUnits": func() { NaturalPartitionUnits([]Program{p, q}, 4, 2) },
			"SharedGroupMissRatio":  func() { SharedGroupMissRatio([]Program{q, p}, 10) },
		} {
			mustPanic(t, fmt.Sprintf("%s with rate %v", name, rate), f)
		}
	}
	nan := math.NaN()
	mustPanic(t, "FillTime at NaN", func() { FillTime([]Program{p}, nan) })
	mustPanic(t, "NaturalPartition at NaN", func() { NaturalPartition([]Program{p}, nan) })
	mustPanic(t, "SharedMissRatios at NaN", func() { SharedMissRatios([]Program{p}, nan) })
}

func mustPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: no panic", name)
		}
	}()
	f()
}

// Property: a program's natural occupancy grows with its access rate —
// faster programs grab more cache (the gainer/loser mechanism of §VII-B).
func TestOccupancyMonotoneInRate(t *testing.T) {
	base := randomTrace(30, 5000, 400)
	peer := randomTrace(31, 5000, 400)
	prev := 0.0
	for _, rate := range []float64{0.5, 1, 2, 4} {
		progs := []Program{prog("x", base, rate), prog("peer", peer, 1)}
		occ := NaturalPartition(progs, 300)
		if occ[0] < prev-1e-9 {
			t.Fatalf("rate %v: occupancy %v fell below %v", rate, occ[0], prev)
		}
		prev = occ[0]
	}
}

// Property: every program's occupancy grows with total cache size.
func TestOccupancyMonotoneInCache(t *testing.T) {
	progs := []Program{
		prog("a", randomTrace(32, 5000, 500), 1),
		prog("b", randomTrace(33, 5000, 250), 2),
	}
	prevA, prevB := 0.0, 0.0
	for _, c := range []float64{50, 150, 300, 600} {
		occ := NaturalPartition(progs, c)
		if occ[0] < prevA-1e-9 || occ[1] < prevB-1e-9 {
			t.Fatalf("cache %v: occupancies %v shrank from (%v, %v)", c, occ, prevA, prevB)
		}
		prevA, prevB = occ[0], occ[1]
	}
}

// Property: per-program shared miss ratios never improve when a new peer
// joins the cache (more contention, smaller occupancy).
func TestSharingMoreProgramsNeverHelps(t *testing.T) {
	a := prog("a", randomTrace(34, 5000, 400), 1)
	b := prog("b", randomTrace(35, 5000, 300), 1)
	c := prog("c", randomTrace(36, 5000, 350), 2)
	cache := 400.0
	duo := SharedMissRatios([]Program{a, b}, cache)
	trio := SharedMissRatios([]Program{a, b, c}, cache)
	if trio[0] < duo[0]-1e-9 || trio[1] < duo[1]-1e-9 {
		t.Fatalf("adding a peer improved someone: duo %v vs trio %v", duo, trio[:2])
	}
}

// Property: combined footprint is monotone in the window length.
func TestCombinedFpMonotone(t *testing.T) {
	progs := []Program{
		prog("a", randomTrace(37, 4000, 300), 1.5),
		prog("b", randomTrace(38, 4000, 200), 0.7),
	}
	prev := 0.0
	for w := 0.0; w <= 8000; w += 97 {
		v := CombinedFp(progs, w)
		if v < prev-1e-9 {
			t.Fatalf("combined fp fell at w=%v: %v < %v", w, v, prev)
		}
		prev = v
	}
}

// sharedGroupMissRatioDirect predicts the group miss ratio directly from
// the composed footprint as fp(w+1) − c where fp(w) = c (Eq. 10 applied to
// Eq. 9). It equals SharedGroupMissRatio up to interpolation error: the
// oracle for that identity.
func sharedGroupMissRatioDirect(progs []Program, c float64) float64 {
	validate(progs)
	if c >= TotalData(progs) {
		// Cold misses only: the rate-weighted per-program cold rates.
		r := totalRate(progs)
		var sum float64
		for i := range progs {
			p := &progs[i]
			sum += float64(p.Fp.M()) / float64(p.Fp.N()) * p.Rate / r
		}
		return sum
	}
	w := FillTime(progs, c)
	mr := CombinedFp(progs, w+1) - c
	if mr < 0 {
		return 0
	}
	if mr > 1 {
		return 1
	}
	return mr
}
