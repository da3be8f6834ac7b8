package partition

import (
	"container/heap"
	"fmt"
	"math/rand/v2"
	"testing"

	"partitionshare/internal/mrc"
	"partitionshare/internal/workload"
)

// refSTTWHeap is STTW's heap as it stood on container/heap: the oracle for
// the typed heap's tie order.
type refSTTWHeap []sttwItem

func (h refSTTWHeap) Len() int            { return len(h) }
func (h refSTTWHeap) Less(i, j int) bool  { return h[i].gain > h[j].gain }
func (h refSTTWHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refSTTWHeap) Push(x interface{}) { *h = append(*h, x.(sttwItem)) }
func (h *refSTTWHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// referenceSTTW is the container/heap STTW, verbatim.
func referenceSTTW(curves []mrc.Curve, units int) Solution {
	alloc := make(Allocation, len(curves))
	h := make(refSTTWHeap, 0, len(curves))
	gain := func(p, u int) float64 {
		return curves[p].MissCount(u) - curves[p].MissCount(u+1)
	}
	for p := range curves {
		h = append(h, sttwItem{p, gain(p, 0)})
	}
	heap.Init(&h)
	for granted := 0; granted < units; granted++ {
		it := heap.Pop(&h).(sttwItem)
		alloc[it.p]++
		heap.Push(&h, sttwItem{it.p, gain(it.p, alloc[it.p])})
	}
	sol, err := Evaluate(Problem{Curves: curves, Units: units}, alloc)
	if err != nil {
		panic(err)
	}
	return sol
}

// checkSTTWTieOrder compares STTW with the container/heap oracle: the
// allocation element by element and every float of the solution,
// GroupMissRatio included, bit for bit.
func checkSTTWTieOrder(t *testing.T, name string, curves []mrc.Curve, units int) {
	t.Helper()
	got, want := STTW(curves, units), referenceSTTW(curves, units)
	if !sameBits(got, want) {
		t.Fatalf("%s: STTW alloc %v (group mr %v), container/heap %v (group mr %v)",
			name, got.Alloc, got.GroupMissRatio, want.Alloc, want.GroupMissRatio)
	}
}

// TestSTTWTieOrder pins the typed heap to container/heap's pop order on
// the shapes where ties decide the allocation: identical curves, all-flat
// curves (every gain 0), a single program, a heap whose size is not a
// power of two, fewer units than programs, and random curves quantized to
// a few levels so equal gains are common.
func TestSTTWTieOrder(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 41))
	const units = 64
	same := randCurve(rng, "same", units)
	checkSTTWTieOrder(t, "four identical", []mrc.Curve{same, same, same, same}, units)

	flat := make([]mrc.Curve, 5)
	for p := range flat {
		mr := make([]float64, units+1)
		for u := range mr {
			mr[u] = 0.25
		}
		flat[p] = mkCurve(fmt.Sprint("flat", p), int64(1000+p), mr...)
	}
	checkSTTWTieOrder(t, "all flat", flat, units)

	checkSTTWTieOrder(t, "n=1", []mrc.Curve{randCurve(rng, "one", units)}, units)

	seven := make([]mrc.Curve, 7)
	for p := range seven {
		seven[p] = randCurve(rng, "seven", units)
	}
	checkSTTWTieOrder(t, "n=7", seven, units)
	checkSTTWTieOrder(t, "units < n", seven, 3)

	for i := 0; i < 200; i++ {
		n, c := 1+rng.IntN(9), 1+rng.IntN(40)
		curves := make([]mrc.Curve, n)
		for p := range curves {
			curves[p] = randCurve(rng, "q", c)
			for u, r := range curves[p].MR {
				curves[p].MR[u] = float64(int(r*4)) / 4
			}
			curves[p].Accesses = 1000 * int64(1+rng.IntN(2))
		}
		checkSTTWTieOrder(t, fmt.Sprintf("quantized #%d", i), curves, c)
	}
}

// TestSTTWTieOrderTableI runs the tie-order check on all 1820 Table I
// groups at the paper's C=1024.
func TestSTTWTieOrderTableI(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("paper-scale STTW check skipped in -short mode and under -race")
	}
	progs, groups := tableIGroups(t)
	units := workload.DefaultConfig().Units
	for _, g := range groups {
		curves := make([]mrc.Curve, len(g))
		for i, m := range g {
			curves[i] = progs[m].Curve
		}
		checkSTTWTieOrder(t, fmt.Sprint(g), curves, units)
	}
}

// fuzzSTTWInstance decodes fuzz bytes into a small STTW instance: byte 0
// picks 1–6 programs, byte 1 1–256 units, and byte 2's bits force ties —
// bit 0 duplicates each curve into the next program, bit 1 gives every
// curve a flat tail (all gains 0 past a byte-chosen unit), bit 2 gives
// every program the same first gain and access count. The remaining
// bytes are eight miss-ratio knots per curve, quantized to sixteenths and
// held across equal stretches, so equal gains are common even without
// the forcing bits; the curves need not be monotone.
func fuzzSTTWInstance(data []byte) ([]mrc.Curve, int) {
	n, units, mode := 1+int(data[0])%6, 1+int(data[1]), data[2]
	data = data[3:]
	next := func() int {
		b := 128
		if len(data) > 0 {
			b, data = int(data[0]), data[1:]
		}
		return b
	}
	curves := make([]mrc.Curve, n)
	for p := range curves {
		if p > 0 && mode&1 != 0 {
			curves[p] = curves[p-1]
			continue
		}
		mr := make([]float64, units+1)
		var knots [8]float64
		for k := range knots {
			knots[k] = float64(next()%17) / 16
		}
		for u := range mr {
			mr[u] = knots[u*len(knots)/(units+1)]
		}
		if mode&2 != 0 {
			for u := next() % (units + 1); u <= units; u++ {
				mr[u] = mr[max(u-1, 0)]
			}
		}
		acc := int64(1000 * (1 + next()%3))
		if mode&4 != 0 {
			acc = 1000
			mr[0] = 1
			if units >= 1 {
				mr[1] = 0.5
			}
		}
		curves[p] = mkCurve(fmt.Sprint("f", p), acc, mr...)
	}
	return curves, units
}

// FuzzSTTW diffs STTW against the container/heap oracle, allocation and
// solution bits, on small instances biased toward tied gains — where the
// strict-argmax grants must hand over to the heap replay.
func FuzzSTTW(f *testing.F) {
	f.Add([]byte{3, 63, 0, 16, 12, 9, 9, 4, 2, 1, 0})
	f.Add([]byte{4, 255, 1, 16, 14, 10, 6, 3, 1, 0, 0})
	f.Add([]byte{5, 40, 2, 16, 8, 8, 4, 4, 0, 0, 0, 20})
	f.Add([]byte{2, 100, 4, 16, 16, 12, 12, 8, 4, 2, 2})
	f.Add([]byte{6, 7, 7})
	// The granted program's next gain ties the runner-up's: granting it
	// again without the heap is wrong here.
	f.Add([]byte("1\x06010"))
	f.Add([]byte{0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		curves, units := fuzzSTTWInstance(data)
		checkSTTWTieOrder(t, fmt.Sprintf("%x", data), curves, units)
	})
}
