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

// referenceHullSTTW is STTWOnConvexHull over referenceSTTW.
func referenceHullSTTW(curves []mrc.Curve, units int) Solution {
	hulls := make([]mrc.Curve, len(curves))
	for i, c := range curves {
		hulls[i] = c.ConvexMinorant()
	}
	sol, err := Evaluate(Problem{Curves: curves, Units: units}, referenceSTTW(hulls, units).Alloc)
	if err != nil {
		panic(err)
	}
	return sol
}

// checkSTTWTieOrder compares STTW and STTWOnConvexHull with the
// container/heap oracle: the allocation element by element and every
// float of the solution, GroupMissRatio included, bit for bit.
func checkSTTWTieOrder(t *testing.T, name string, curves []mrc.Curve, units int) {
	t.Helper()
	for _, c := range []struct {
		scheme    string
		got, want Solution
	}{
		{"STTW", STTW(curves, units), referenceSTTW(curves, units)},
		{"hull STTW", STTWOnConvexHull(curves, units), referenceHullSTTW(curves, units)},
	} {
		if !sameBits(c.got, c.want) {
			t.Fatalf("%s: %s alloc %v (group mr %v), container/heap %v (group mr %v)",
				name, c.scheme, c.got.Alloc, c.got.GroupMissRatio, c.want.Alloc, c.want.GroupMissRatio)
		}
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
