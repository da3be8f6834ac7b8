package mrc_test

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"testing"

	"partitionshare/internal/compose"
	"partitionshare/internal/footprint"
	"partitionshare/internal/mrc"
	"partitionshare/internal/reuse"
	"partitionshare/internal/trace"
	"partitionshare/internal/workload"
)

// The HOTL differential tests pin the footprint queries behind curve
// derivation and the natural partition — footprint.At, FillTime,
// MissRatioWindow, mrc.FromFootprint, compose.NaturalPartition and
// SharedMissRatios — bit for bit to the straightforward code below, which
// searches every tail sum over its whole range for every window and
// derives each curve window's edges independently.

// refTail is a reuse.TailSum rebuilt from its histogram, answering Excess
// with a full-range sort.Search.
type refTail struct{ values, sufCnt, sufSum []int64 }

func newRefTail(ts reuse.TailSum) refTail {
	var values, counts []int64
	ts.Each(func(v, c int64) { values, counts = append(values, v), append(counts, c) })
	r := refTail{values: values, sufCnt: make([]int64, len(values)+1), sufSum: make([]int64, len(values)+1)}
	for i := len(values) - 1; i >= 0; i-- {
		r.sufCnt[i] = r.sufCnt[i+1] + counts[i]
		r.sufSum[i] = r.sufSum[i+1] + values[i]*counts[i]
	}
	return r
}

func (r refTail) excess(w int64) int64 {
	i := sort.Search(len(r.values), func(i int) bool { return r.values[i] > w })
	return r.sufSum[i] - w*r.sufCnt[i]
}

// refFp is the footprint's HOTL code over a reference AtInt.
type refFp struct {
	n, m  int64
	atInt func(w int64) float64
}

// newRefFp evaluates AtInt from the profile's histograms.
func newRefFp(p reuse.Profile) refFp {
	tails := []refTail{newRefTail(p.Reuse), newRefTail(p.First), newRefTail(p.Last)}
	return refFp{n: p.N, m: p.M, atInt: func(w int64) float64 {
		switch {
		case w <= 0:
			return 0
		case w >= p.N:
			return float64(p.M)
		}
		deficit := tails[0].excess(w) + tails[1].excess(w) + tails[2].excess(w)
		return float64(p.M) - float64(deficit)/float64(p.N-w+1)
	}}
}

func (f refFp) At(w float64) float64 {
	if w <= 0 {
		return 0
	}
	if w >= float64(f.n) {
		return float64(f.m)
	}
	lo := math.Floor(w)
	frac := w - lo
	flo := f.atInt(int64(lo))
	if frac == 0 {
		return flo
	}
	fhi := f.atInt(int64(lo) + 1)
	return flo + frac*(fhi-flo)
}

func (f refFp) FillTime(c float64) float64 {
	if c == 0 {
		return 0
	}
	if c > float64(f.m) {
		return math.Inf(1)
	}
	lo, hi := int64(0), f.n
	for lo < hi {
		mid := (lo + hi) / 2
		if f.atInt(mid) >= c {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	flo := f.atInt(lo - 1)
	fhi := f.atInt(lo)
	if fhi <= flo {
		return float64(lo)
	}
	return float64(lo-1) + (c-flo)/(fhi-flo)
}

func (f refFp) MissRatio(c float64) float64 {
	if c >= float64(f.m) {
		return float64(f.m) / float64(f.n)
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

func (f refFp) MissRatioWindow(c, dc float64) float64 {
	if dc <= 0 {
		return f.MissRatio(c)
	}
	m := float64(f.m)
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
	w1, w2 := f.FillTime(lo), f.FillTime(hi)
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

// refCurve is FromFootprint's loop: every window's two edges searched
// independently.
func refCurve(name string, f refFp, units int, blocksPerUnit int64, accessRate float64) mrc.Curve {
	c := mrc.Curve{Name: name, MR: make([]float64, units+1), Accesses: f.n, AccessRate: accessRate}
	for u := 0; u <= units; u++ {
		c.MR[u] = f.MissRatioWindow(float64(int64(u)*blocksPerUnit), float64(blocksPerUnit))
	}
	return c.MonotoneRepair()
}

func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// checkCurve compares FromFootprint with refCurve bit for bit.
func checkCurve(t *testing.T, name string, p reuse.Profile, units int, blocksPerUnit int64) {
	t.Helper()
	got := mrc.FromFootprint(name, footprint.New(p), units, blocksPerUnit, 1.5)
	want := refCurve(name, newRefFp(p), units, blocksPerUnit, 1.5)
	if got.Name != want.Name || got.Accesses != want.Accesses || !sameFloat(got.AccessRate, want.AccessRate) || len(got.MR) != len(want.MR) {
		t.Fatalf("%s: curve header %q/%d/%v/%d points, reference %q/%d/%v/%d",
			name, got.Name, got.Accesses, got.AccessRate, len(got.MR), want.Name, want.Accesses, want.AccessRate, len(want.MR))
	}
	for u := range got.MR {
		if !sameFloat(got.MR[u], want.MR[u]) {
			t.Fatalf("%s: MR[%d] = %v, reference %v (units %d, %d blocks/unit)", name, u, got.MR[u], want.MR[u], units, blocksPerUnit)
		}
	}
}

// checkHOTL compares the footprint queries with the reference at integer,
// fractional and random windows, at every curve-window edge and centre,
// and at random cache sizes, then compares the derived curve.
func checkHOTL(t *testing.T, name string, p reuse.Profile, units int, blocksPerUnit int64, rng *rand.Rand) {
	t.Helper()
	f, ref := footprint.New(p), newRefFp(p)
	ws := []float64{-1, 0, 0.5, 1, 1.25, 2, float64(p.N) - 1.5, float64(p.N) - 1, float64(p.N) - 0.5, float64(p.N), float64(p.N) + 1}
	for i := 0; i < 64; i++ {
		ws = append(ws, rng.Float64()*float64(p.N+2), math.Floor(rng.Float64()*float64(p.N+2)))
	}
	for _, w := range ws {
		if got, want := f.At(w), ref.At(w); !sameFloat(got, want) {
			t.Fatalf("%s: At(%v) = %v, reference %v", name, w, got, want)
		}
		if got, want := f.AtInt(int64(w)), ref.atInt(int64(w)); !sameFloat(got, want) {
			t.Fatalf("%s: AtInt(%d) = %v, reference %v", name, int64(w), got, want)
		}
	}
	cs := []float64{0, float64(p.M), float64(p.M) + 0.5}
	for k := int64(0); k <= 2*int64(units)+2; k++ {
		cs = append(cs, float64(k*blocksPerUnit)/2)
	}
	for i := 0; i < 64; i++ {
		cs = append(cs, rng.Float64()*float64(p.M+1))
	}
	for _, c := range cs {
		if got, want := f.FillTime(c), ref.FillTime(c); !sameFloat(got, want) {
			t.Fatalf("%s: FillTime(%v) = %v, reference %v", name, c, got, want)
		}
		if got, want := f.MissRatio(c), ref.MissRatio(c); !sameFloat(got, want) {
			t.Fatalf("%s: MissRatio(%v) = %v, reference %v", name, c, got, want)
		}
		for _, dc := range []float64{0, 1, float64(blocksPerUnit)} {
			if got, want := f.MissRatioWindow(c, dc), ref.MissRatioWindow(c, dc); !sameFloat(got, want) {
				t.Fatalf("%s: MissRatioWindow(%v, %v) = %v, reference %v", name, c, dc, got, want)
			}
		}
	}
	checkCurve(t, name, p, units, blocksPerUnit)
}

// suiteProfile profiles one suite program the way cmd/hotlprof does.
func suiteProfile(spec workload.Spec, cfg workload.Config) (trace.Trace, reuse.Profile) {
	tr := trace.Generate(spec.Build(uint32(cfg.CacheBlocks()), cfg.Seed), cfg.TraceLen)
	return tr, reuse.Collect(tr)
}

// TestHOTLMatchesReference runs checkHOTL on the 16 suite programs at
// TestConfig and DefaultConfig (the latter skipped in -short mode, and only
// two programs at TestConfig under -race), on sampled profiles, at one and three blocks per unit (where the
// window edges are half-blocks), and on profiles with fewer distinct data
// than the cache holds, so the c ≥ m branch runs.
func TestHOTLMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 23))
	configs := []workload.Config{workload.TestConfig()}
	if !testing.Short() && !raceEnabled {
		configs = append(configs, workload.DefaultConfig())
	}
	specs := workload.Specs()
	if raceEnabled {
		// Single-goroutine code: under -race, two programs keep every
		// branch covered without starving timing tests in other packages.
		specs = specs[:2]
	}
	for _, cfg := range configs {
		for i, spec := range specs {
			tr, p := suiteProfile(spec, cfg)
			name := fmt.Sprintf("%s/units=%d", spec.Name, cfg.Units)
			checkHOTL(t, name, p, cfg.Units, cfg.BlocksPerUnit, rng)
			if cfg.Units != workload.TestConfig().Units || i%4 != 0 {
				continue
			}
			for _, bpu := range []int64{1, 3} {
				checkCurve(t, fmt.Sprintf("%s/bpu=%d", name, bpu), p, int(cfg.CacheBlocks()/bpu), bpu)
			}
			for _, rate := range []float64{0.02, 0.1} {
				checkHOTL(t, fmt.Sprintf("%s/sampled=%v", name, rate), reuse.CollectSampled(tr, rate, 9), cfg.Units, cfg.BlocksPerUnit, rng)
			}
		}
	}
	small := []trace.Trace{
		trace.Generate(trace.NewLoop(100, 1), 5000),
		{7},
		{1, 2, 1, 2, 3},
	}
	rnd := make(trace.Trace, 20000)
	for i := range rnd {
		rnd[i] = uint32(rng.IntN(150))
	}
	small = append(small, rnd)
	for i, tr := range small {
		p := reuse.Collect(tr)
		for _, bpu := range []int64{1, 3, 4} {
			checkHOTL(t, fmt.Sprintf("small#%d/bpu=%d", i, bpu), p, 64, bpu, rng)
		}
	}
}

// refNaturalPartition is compose.NaturalPartition and SharedMissRatios
// over the reference footprints, for a cache of c > 0 blocks.
func refNaturalPartition(fps []refFp, rates []float64, c float64) (occ, mrs []float64) {
	var r, total float64
	for i, f := range fps {
		r += rates[i]
		total += float64(f.m)
	}
	occ = make([]float64, len(fps))
	if c >= total {
		for i, f := range fps {
			occ[i] = float64(f.m)
		}
	} else {
		combined := func(w float64) float64 {
			var sum float64
			for i, f := range fps {
				sum += f.At(w * rates[i] / r)
			}
			return sum
		}
		hi := 1.0
		for i, f := range fps {
			if b := float64(f.n) * r / rates[i]; b > hi {
				hi = b
			}
		}
		lo := 0.0
		for i := 0; i < 100 && hi-lo > 1e-9*math.Max(1, hi); i++ {
			mid := (lo + hi) / 2
			if combined(mid) >= c {
				hi = mid
			} else {
				lo = mid
			}
		}
		for i, f := range fps {
			occ[i] = f.At(hi * rates[i] / r)
		}
	}
	mrs = make([]float64, len(fps))
	for i, f := range fps {
		mrs[i] = f.MissRatio(occ[i])
	}
	return occ, mrs
}

// TestNaturalPartitionMatchesReference compares compose.NaturalPartition
// and SharedMissRatios with the reference over all 1820 four-program
// groups of the suite at the Table I cache size, at TestConfig and (outside
// -short) DefaultConfig. It is skipped under -race.
func TestNaturalPartitionMatchesReference(t *testing.T) {
	if raceEnabled {
		t.Skip("single-goroutine differential test skipped under -race")
	}
	configs := []workload.Config{workload.TestConfig()}
	if !testing.Short() && !raceEnabled {
		configs = append(configs, workload.DefaultConfig())
	}
	for _, cfg := range configs {
		specs := workload.Specs()
		progs := make([]compose.Program, len(specs))
		refs := make([]refFp, len(specs))
		for i, spec := range specs {
			_, p := suiteProfile(spec, cfg)
			progs[i] = compose.Program{Name: spec.Name, Fp: footprint.New(p), Rate: spec.Rate}
			refs[i] = newRefFp(p)
		}
		c := float64(cfg.CacheBlocks())
		groups := 0
		for a := 0; a < len(specs); a++ {
			for b := a + 1; b < len(specs); b++ {
				for d := b + 1; d < len(specs); d++ {
					for e := d + 1; e < len(specs); e++ {
						g := []int{a, b, d, e}
						gp := make([]compose.Program, len(g))
						gr := make([]refFp, len(g))
						rates := make([]float64, len(g))
						for i, m := range g {
							gp[i], gr[i], rates[i] = progs[m], refs[m], progs[m].Rate
						}
						occ, mrs := compose.NaturalPartition(gp, c), compose.SharedMissRatios(gp, c)
						wantOcc, wantMrs := refNaturalPartition(gr, rates, c)
						for i := range g {
							if !sameFloat(occ[i], wantOcc[i]) || !sameFloat(mrs[i], wantMrs[i]) {
								t.Fatalf("units=%d group %v program %d: occupancy %v, mr %v; reference %v, %v",
									cfg.Units, g, i, occ[i], mrs[i], wantOcc[i], wantMrs[i])
							}
						}
						groups++
					}
				}
			}
		}
		if groups != 1820 {
			t.Fatalf("%d groups, want 1820", groups)
		}
	}
}

// FuzzCurveDerive derives a curve from a random trace at a small geometry
// and compares it with the reference loop. The first two bytes pick the
// unit count and blocks per unit; each later pair of bytes is one access
// over a small ID space, so reuses and working sets below the cache size
// both occur.
func FuzzCurveDerive(f *testing.F) {
	f.Add([]byte{7, 0, 1, 0, 2, 0, 1, 0, 3, 0})
	f.Add([]byte{31, 2, 0, 0, 0, 0, 0, 0})
	seed := make([]byte, 512)
	for i := range seed {
		seed[i] = byte(i * 13)
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		units, bpu := 1+int(data[0]%32), 1+int64(data[1]%5)
		tr := make(trace.Trace, 0, len(data)/2)
		for i := 2; i+1 < len(data); i += 2 {
			tr = append(tr, uint32(data[i])|uint32(data[i+1]&0x1)<<8)
		}
		checkCurve(t, "fuzz", reuse.Collect(tr), units, bpu)
	})
}
