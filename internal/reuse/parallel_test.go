package reuse

import (
	"math"
	"math/rand/v2"
	"reflect"
	"testing"

	"partitionshare/internal/trace"
)

// randTrace builds a mixed trace with streaming (far, never-reused IDs),
// looping, and skewed-random components — the patterns the workload suite
// uses — so the differential tests cover sparse high IDs, dense low IDs,
// and every reuse shape.
func randTrace(rng *rand.Rand, n int) trace.Trace {
	t := make(trace.Trace, n)
	loopSize := uint32(rng.IntN(200) + 4)
	zipfPool := uint32(rng.IntN(500) + 10)
	var stream uint32 = 1 << 28
	var loopPos uint32
	for i := range t {
		switch rng.IntN(4) {
		case 0: // streaming: fresh far ID every time
			t[i] = stream
			stream++
		case 1: // cyclic loop
			t[i] = 100000 + loopPos
			loopPos = (loopPos + 1) % loopSize
		default: // skewed random pool
			t[i] = uint32(rng.IntN(int(zipfPool)))
		}
	}
	return t
}

// mustCollectParallel runs CollectParallel without cancellation and fails
// the test on error.
func mustCollectParallel(t *testing.T, tr trace.Trace, workers int) Profile {
	t.Helper()
	p, err := CollectParallel(nil, tr, workers)
	if err != nil {
		t.Fatalf("CollectParallel(workers=%d): %v", workers, err)
	}
	return p
}

func profilesEqual(t *testing.T, label string, got, want Profile) {
	t.Helper()
	if got.N != want.N || got.M != want.M {
		t.Fatalf("%s: N,M = %d,%d; want %d,%d", label, got.N, got.M, want.N, want.M)
	}
	for name, pair := range map[string][2]TailSum{
		"Reuse": {got.Reuse, want.Reuse},
		"First": {got.First, want.First},
		"Last":  {got.Last, want.Last},
	} {
		if !reflect.DeepEqual(pair[0], pair[1]) {
			t.Fatalf("%s: %s TailSum differs: got %+v want %+v", label, name, pair[0], pair[1])
		}
	}
}

// TestCollectBitExactWithReference asserts the dense-slice scan reproduces
// the map-based reference profile field for field.
func TestCollectBitExactWithReference(t *testing.T) {
	for seed := uint64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewPCG(seed, seed*31))
		tr := randTrace(rng, rng.IntN(5000)+1)
		profilesEqual(t, "dense", Collect(tr), CollectReference(tr))
	}
}

// TestCollectParallelBitExactAllWorkerCounts asserts the sharded scan
// merges to exactly the serial profile for every worker count, including
// counts that collapse to the serial path.
func TestCollectParallelBitExactAllWorkerCounts(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewPCG(seed, seed*131))
		// Long enough that several shards survive the minShardLen clamp.
		tr := randTrace(rng, 3*minShardLen+rng.IntN(minShardLen))
		want := CollectReference(tr)
		for workers := 1; workers <= 8; workers++ {
			profilesEqual(t, "parallel", mustCollectParallel(t, tr, workers), want)
		}
	}
}

// TestCollectParallelShortTrace covers the serial fallback and boundary
// sharding on traces too short to shard evenly.
func TestCollectParallelShortTrace(t *testing.T) {
	for _, n := range []int{1, 2, 3, 100, minShardLen - 1, minShardLen, 2*minShardLen + 1} {
		rng := rand.New(rand.NewPCG(uint64(n), 7))
		tr := randTrace(rng, n)
		profilesEqual(t, "short", mustCollectParallel(t, tr, 4), CollectReference(tr))
	}
}

// TestCollectParallelRepeatedDatum exercises the merge's boundary-pair
// reconstruction: one datum accessed in every segment yields one boundary
// reuse pair per segment joint.
func TestCollectParallelRepeatedDatum(t *testing.T) {
	n := 4 * minShardLen
	tr := make(trace.Trace, n)
	for i := range tr {
		tr[i] = uint32(i % 3) // three data, each reused constantly across all shards
	}
	profilesEqual(t, "repeated", mustCollectParallel(t, tr, 4), CollectReference(tr))
}

// replay is a Generator that plays a fixed trace back.
type replay struct {
	t []uint32
	i int
}

func (r *replay) Next() uint32 {
	d := r.t[r.i]
	r.i++
	return d
}

func (r *replay) MaxData() uint32 { return math.MaxUint32 }

// TestCollectStreamBitExact feeds CollectStream traces shorter than,
// equal to, and several chunks longer than its generation buffer, ending
// mid-chunk, and requires Collect's profile field for field.
func TestCollectStreamBitExact(t *testing.T) {
	for _, n := range []int{1, 2, 100, streamChunk - 1, streamChunk, streamChunk + 1, 5*streamChunk + 77} {
		rng := rand.New(rand.NewPCG(uint64(n), 11))
		tr := randTrace(rng, n)
		want := CollectReference(tr)
		profilesEqual(t, "stream", CollectStream(&replay{t: tr}, n), want)
		profilesEqual(t, "dense", Collect(tr), want)
	}
}

// TestCollectHighIDs puts data at and above the streaming region's base
// (1<<28, where the workload suite places its streaming component) and
// at the top of the ID space, so the position table's page index grows
// on demand well past its first pages, out of order, and reaches its
// largest size. Every path must match the reference.
func TestCollectHighIDs(t *testing.T) {
	ids := []uint32{
		1 << 28, 1<<28 + 1, 1<<28 + posPageSize, 1<<28 - 1,
		math.MaxUint32, math.MaxUint32 - 1, math.MaxUint32 - posPageSize,
		0, 1, posPageSize, 1 << 31,
	}
	rng := rand.New(rand.NewPCG(5, 55))
	tr := make(trace.Trace, 3*minShardLen)
	for i := range tr {
		tr[i] = ids[rng.IntN(len(ids))]
	}
	// One datum touched once, last in the trace, at the very top page.
	tr[len(tr)-1] = math.MaxUint32 - 7
	want := CollectReference(tr)
	profilesEqual(t, "dense", Collect(tr), want)
	profilesEqual(t, "stream", CollectStream(&replay{t: tr}, len(tr)), want)
	for workers := 2; workers <= 3; workers++ {
		profilesEqual(t, "parallel", mustCollectParallel(t, tr, workers), want)
	}
	sameHistograms(t, "short", Collect(tr[:len(ids)]), CollectReference(tr[:len(ids)]))

	var pt posTable
	pt.set(math.MaxUint32, 1)
	if got, want := len(pt.pages), math.MaxUint32>>posPageBits+1; got != want {
		t.Errorf("page index after ID MaxUint32 has %d pages, want %d", got, want)
	}
	if pt.get(1<<28) != 0 || pt.get(math.MaxUint32) != 1 {
		t.Error("page index lookups disagree with the recorded positions")
	}
}
