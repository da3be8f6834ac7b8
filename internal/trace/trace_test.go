package trace

import (
	"testing"
	"testing/quick"
)

func TestStreamingFreshData(t *testing.T) {
	g := NewStreaming(1)
	tr := Generate(g, 100)
	if got := tr.DistinctData(); got != 100 {
		t.Fatalf("streaming repeat=1: distinct = %d, want 100", got)
	}
	for i, d := range tr {
		if d != uint32(i) {
			t.Fatalf("access %d = %d, want %d", i, d, i)
		}
	}
}

func TestStreamingRepeat(t *testing.T) {
	g := NewStreaming(4)
	tr := Generate(g, 100)
	if got := tr.DistinctData(); got != 25 {
		t.Fatalf("streaming repeat=4: distinct = %d, want 25", got)
	}
	// Each block appears exactly 4 times, consecutively.
	for i := 0; i < 100; i++ {
		if tr[i] != uint32(i/4) {
			t.Fatalf("access %d = %d, want %d", i, tr[i], i/4)
		}
	}
}

func TestStreamingClampRepeat(t *testing.T) {
	g := NewStreaming(0)
	if g.Repeat != 1 {
		t.Fatalf("repeat clamped to %d, want 1", g.Repeat)
	}
}

func TestLoopCycles(t *testing.T) {
	g := NewLoop(5, 1)
	tr := Generate(g, 12)
	want := Trace{0, 1, 2, 3, 4, 0, 1, 2, 3, 4, 0, 1}
	for i := range want {
		if tr[i] != want[i] {
			t.Fatalf("loop trace = %v, want %v", tr, want)
		}
	}
	if g.MaxData() != 5 {
		t.Errorf("MaxData = %d, want 5", g.MaxData())
	}
}

func TestLoopRepeat(t *testing.T) {
	g := NewLoop(2, 3)
	tr := Generate(g, 8)
	want := Trace{0, 0, 0, 1, 1, 1, 0, 0}
	for i := range want {
		if tr[i] != want[i] {
			t.Fatalf("loop repeat trace = %v, want %v", tr, want)
		}
	}
}

func TestSawtoothSweep(t *testing.T) {
	g := NewSawtooth(4)
	tr := Generate(g, 10)
	want := Trace{0, 1, 2, 3, 2, 1, 0, 1, 2, 3}
	for i := range want {
		if tr[i] != want[i] {
			t.Fatalf("sawtooth trace = %v, want %v", tr, want)
		}
	}
}

func TestSawtoothSizeOne(t *testing.T) {
	g := NewSawtooth(1)
	tr := Generate(g, 5)
	for _, d := range tr {
		if d != 0 {
			t.Fatalf("sawtooth size 1 emitted %d", d)
		}
	}
}

func TestZipfBoundsAndSkew(t *testing.T) {
	g := NewZipf(100, 1.0, 42)
	counts := make(map[uint32]int)
	n := 20000
	for i := 0; i < n; i++ {
		d := g.Next()
		if d >= 100 {
			t.Fatalf("zipf emitted out-of-range ID %d", d)
		}
		counts[d]++
	}
	// Rank 0 should be much hotter than rank 50.
	if counts[0] <= counts[50]*3 {
		t.Errorf("zipf not skewed: counts[0]=%d counts[50]=%d", counts[0], counts[50])
	}
}

func TestZipfDeterministic(t *testing.T) {
	a := Generate(NewZipf(64, 0.8, 7), 1000)
	b := Generate(NewZipf(64, 0.8, 7), 1000)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("zipf with same seed diverged")
		}
	}
}

func TestPhasedAlternation(t *testing.T) {
	g := NewPhased(
		Phase{Gen: NewLoop(3, 1), Len: 3},
		Phase{Gen: Region{Gen: NewLoop(2, 1), Base: 100}, Len: 2},
	)
	tr := Generate(g, 10)
	want := Trace{0, 1, 2, 100, 101, 0, 1, 2, 100, 101}
	for i := range want {
		if tr[i] != want[i] {
			t.Fatalf("phased trace = %v, want %v", tr, want)
		}
	}
}

func TestPhasedPanics(t *testing.T) {
	cases := []func(){
		func() { NewPhased() },
		func() { NewPhased(Phase{Gen: NewLoop(1, 1), Len: 0}) },
		func() { NewPhased(Phase{Gen: nil, Len: 1}) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

func TestMixtureWeights(t *testing.T) {
	// Component 0 over IDs [0,10), component 1 over [100,110).
	g := NewMixture(9,
		[]Generator{NewLoop(10, 1), Region{Gen: NewLoop(10, 1), Base: 100}},
		[]float64{3, 1})
	n := 40000
	lo := 0
	for i := 0; i < n; i++ {
		if g.Next() < 100 {
			lo++
		}
	}
	frac := float64(lo) / float64(n)
	if frac < 0.70 || frac > 0.80 {
		t.Errorf("mixture weight 3:1 gave fraction %v, want ~0.75", frac)
	}
}

func TestMixturePanics(t *testing.T) {
	cases := []func(){
		func() { NewMixture(1, nil, nil) },
		func() { NewMixture(1, []Generator{NewLoop(1, 1)}, []float64{1, 2}) },
		func() { NewMixture(1, []Generator{NewLoop(1, 1)}, []float64{0}) },
		func() { NewMixture(1, []Generator{NewLoop(1, 1)}, []float64{-1}) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

func TestRegionShift(t *testing.T) {
	g := Region{Gen: NewLoop(3, 1), Base: 50}
	tr := Generate(g, 3)
	if tr[0] != 50 || tr[1] != 51 || tr[2] != 52 {
		t.Fatalf("region trace = %v", tr)
	}
	if g.MaxData() != 53 {
		t.Errorf("MaxData = %d, want 53", g.MaxData())
	}
}

func TestOffset(t *testing.T) {
	tr := Trace{0, 1, 2}
	got := tr.Offset(10)
	if got[0] != 10 || got[2] != 12 {
		t.Fatalf("Offset = %v", got)
	}
	if tr[0] != 0 {
		t.Fatal("Offset mutated the receiver")
	}
}

func TestInterleaveProportionalRates(t *testing.T) {
	a := Generate(NewLoop(4, 1), 100)
	b := Generate(NewLoop(4, 1), 100)
	iv := InterleaveProportional([]Trace{a, b}, []float64{3, 1}, 400)
	if iv.Counts[0] != 300 || iv.Counts[1] != 100 {
		t.Fatalf("counts = %v, want [300 100]", iv.Counts)
	}
	if len(iv.Trace) != 400 || len(iv.Owner) != 400 {
		t.Fatalf("lengths = %d/%d, want 400/400", len(iv.Trace), len(iv.Owner))
	}
}

func TestInterleaveDisjointDataSpaces(t *testing.T) {
	a := Generate(NewLoop(8, 1), 50)
	b := Generate(NewLoop(8, 1), 50)
	iv := InterleaveProportional([]Trace{a, b}, []float64{1, 1}, 100)
	seen := map[uint32]uint8{}
	for i, d := range iv.Trace {
		if prev, ok := seen[d]; ok && prev != iv.Owner[i] {
			t.Fatalf("datum %d accessed by programs %d and %d", d, prev, iv.Owner[i])
		}
		seen[d] = iv.Owner[i]
	}
}

func TestInterleavePreservesPerProgramOrder(t *testing.T) {
	a := Generate(NewStreaming(1), 64)
	b := Generate(NewLoop(4, 1), 64)
	iv := InterleaveProportional([]Trace{a, b}, []float64{1, 2}, 120)
	// Extract program 0's accesses; they must equal a's prefix (cycled),
	// shifted by its base.
	var got Trace
	for i, d := range iv.Trace {
		if iv.Owner[i] == 0 {
			got = append(got, d-iv.Bases[0])
		}
	}
	for i, d := range got {
		if d != a[i%len(a)] {
			t.Fatalf("program 0 access %d = %d, want %d", i, d, a[i%len(a)])
		}
	}
}

func TestInterleaveRandomApproximatesRates(t *testing.T) {
	a := Generate(NewLoop(4, 1), 16)
	b := Generate(NewLoop(4, 1), 16)
	iv := InterleaveRandom(11, []Trace{a, b}, []float64{1, 3}, 10000)
	frac := float64(iv.Counts[1]) / 10000
	if frac < 0.72 || frac > 0.78 {
		t.Errorf("random interleave fraction = %v, want ~0.75", frac)
	}
}

func TestInterleavePanics(t *testing.T) {
	good := Trace{0, 1}
	cases := []func(){
		func() { InterleaveProportional(nil, nil, 10) },
		func() { InterleaveProportional([]Trace{good}, []float64{1, 2}, 10) },
		func() { InterleaveProportional([]Trace{{}}, []float64{1}, 10) },
		func() { InterleaveProportional([]Trace{good}, []float64{0}, 10) },
		func() { InterleaveRandom(1, []Trace{good}, []float64{-1}, 10) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

// Property: proportional interleaving emits each program a number of
// accesses within 1 of its exact proportional share at every prefix.
func TestInterleaveProportionalSmoothness(t *testing.T) {
	a := Generate(NewLoop(4, 1), 16)
	b := Generate(NewLoop(4, 1), 16)
	c := Generate(NewLoop(4, 1), 16)
	rates := []float64{1, 2, 5}
	iv := InterleaveProportional([]Trace{a, b, c}, rates, 800)
	counts := make([]float64, 3)
	total := 8.0
	for i, owner := range iv.Owner {
		counts[owner]++
		for p := 0; p < 3; p++ {
			share := rates[p] / total * float64(i+1)
			if diff := counts[p] - share; diff > 1.5 || diff < -1.5 {
				t.Fatalf("prefix %d: program %d count %v vs share %v", i+1, p, counts[p], share)
			}
		}
	}
}

// Property: DistinctData of a loop trace never exceeds the loop size.
func TestLoopDistinctBound(t *testing.T) {
	f := func(size uint16, n uint16) bool {
		s := uint32(size%500) + 1
		tr := Generate(NewLoop(s, 1), int(n%2000)+1)
		return tr.DistinctData() <= int(s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestToBlocks(t *testing.T) {
	tr := Trace{0, 1, 2, 3, 8, 9, 100}
	got := tr.ToBlocks(4)
	want := Trace{0, 0, 0, 0, 2, 2, 25}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ToBlocks = %v, want %v", got, want)
		}
	}
	if tr[0] != 0 || tr[4] != 8 {
		t.Fatal("ToBlocks mutated receiver")
	}
}

func TestToBlocksIdentity(t *testing.T) {
	tr := Generate(NewZipf(100, 0.5, 1), 500)
	got := tr.ToBlocks(1)
	for i := range tr {
		if got[i] != tr[i] {
			t.Fatal("wordsPerBlock=1 should be identity")
		}
	}
}

func TestToBlocksPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Trace{1}.ToBlocks(0)
}

// Line-size study: a sequential word stream at larger block sizes has
// proportionally fewer distinct blocks and (per word access) a lower
// block miss ratio — spatial locality quantified.
func TestToBlocksLineSizeStudy(t *testing.T) {
	words := Generate(NewStreaming(1), 1<<14) // sequential words
	prevDistinct := 1 << 20
	for _, wpb := range []uint32{1, 4, 16, 64} {
		blocks := words.ToBlocks(wpb)
		distinct := blocks.DistinctData()
		wantDistinct := (1 << 14) / int(wpb)
		if distinct != wantDistinct {
			t.Fatalf("wpb=%d: distinct = %d, want %d", wpb, distinct, wantDistinct)
		}
		if distinct >= prevDistinct {
			t.Fatalf("distinct blocks should shrink with block size")
		}
		prevDistinct = distinct
	}
}

// TestDeterministicMixTiesAndRegions pins the scheduler's tie rule and
// the Region peeling: with equal weights every step is a tie among the
// components that have emitted least, which the lowest index wins, so
// the mix is a round robin from component 0; nested Regions (including
// a base that wraps past 2³²) shift IDs exactly as Region.Next would,
// and components the mix does not call directly (Zipf, Phased) go
// through the interface.
func TestDeterministicMixTiesAndRegions(t *testing.T) {
	build := func() []Generator {
		return []Generator{
			Region{Gen: Region{Gen: NewSawtooth(4), Base: 100}, Base: 1000},
			Region{Gen: NewStreaming(2), Base: 1 << 28},
			Region{Gen: NewLoop(3, 1), Base: 1<<32 - 1},
			NewZipf(16, 1, 7),
			NewPhased(Phase{Gen: NewLoop(2, 1), Len: 3}, Phase{Gen: Region{Gen: NewSawtooth(3), Base: 50}, Len: 2}),
		}
	}
	ref := build()
	m := NewDeterministicMix(build(), []float64{1, 1, 1, 1, 1})
	for step := 0; step < 200; step++ {
		if got, want := m.Next(), ref[step%len(ref)].Next(); got != want {
			t.Fatalf("step %d: mix emitted %d, want %d from component %d", step, got, want, step%len(ref))
		}
	}
	var max uint32
	for _, g := range ref {
		if v := g.MaxData(); v > max {
			max = v
		}
	}
	if got := m.MaxData(); got != max {
		t.Errorf("MaxData = %d, want %d", got, max)
	}
}

// TestDeterministicMixFillMatchesNext draws one mix access by access
// and a twin in uneven chunks through Fill: the streams must agree.
func TestDeterministicMixFillMatchesNext(t *testing.T) {
	build := func() *DeterministicMix {
		return NewDeterministicMix([]Generator{
			Region{Gen: NewSawtooth(50), Base: 10},
			NewStreaming(3),
			Region{Gen: NewLoop(20, 2), Base: 500},
			NewZipf(40, 0.9, 3),
		}, []float64{0.7, 0.1, 0.15, 0.05})
	}
	a, b := build(), build()
	want := make([]uint32, 5000)
	for i := range want {
		want[i] = a.Next()
	}
	got := make([]uint32, 0, len(want))
	for _, n := range []int{1, 7, 999, 3000, 993} {
		chunk := make([]uint32, n)
		Fill(b, chunk)
		got = append(got, chunk...)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("access %d: Fill gave %d, Next gave %d", i, got[i], want[i])
		}
	}
}
