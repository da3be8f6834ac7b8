package reuse

import (
	"encoding/binary"
	"testing"
)

// fuzzTrace decodes arbitrary fuzz bytes into a trace: 2 bytes per
// access, masked to a small ID space so reuses actually occur.
func fuzzTrace(data []byte) []uint32 {
	t := make([]uint32, 0, len(data)/2)
	for i := 0; i+1 < len(data); i += 2 {
		t = append(t, uint32(binary.LittleEndian.Uint16(data[i:]))&0x3ff)
	}
	return t
}

// tile repeats tr until it holds at least n accesses, XOR-ing each copy's
// IDs with its copy number mod 8 so that some data recur in every copy
// and others only in some.
func tile(tr []uint32, n int) []uint32 {
	out := make([]uint32, 0, n+len(tr))
	for r := uint32(0); len(out) < n; r++ {
		for _, d := range tr {
			out = append(out, d^(r&7))
		}
	}
	return out
}

// FuzzCollect differentially tests every profiling path against the
// map-based reference on arbitrary traces: Collect, CollectStream and
// CollectParallel must reproduce N, M and every (value, count) pair of
// all three histograms, give a Validate-clean profile, and not panic.
// CollectParallel shards only traces of at least 2·minShardLen accesses,
// so it runs on the input tiled to that length.
func FuzzCollect(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 1, 0, 2, 0, 1, 0})
	f.Add([]byte{0, 0, 0, 0, 0, 0})
	seed := make([]byte, 256)
	for i := range seed {
		seed[i] = byte(i * 7)
	}
	f.Add(seed)

	f.Fuzz(func(t *testing.T, data []byte) {
		tr := fuzzTrace(data)
		if len(tr) == 0 {
			return
		}
		want := CollectReference(tr)
		got := Collect(tr)
		sameHistograms(t, "Collect", got, want)
		sameHistograms(t, "CollectStream", CollectStream(&replay{t: tr}, len(tr)), want)
		long := tile(tr, 2*minShardLen)
		sameHistograms(t, "CollectParallel", mustCollectParallel(t, long, 2), CollectReference(long))
		if err := got.Validate(); err != nil {
			t.Fatalf("collected profile fails Validate: %v", err)
		}
	})
}

// sameHistograms fails the test unless got and want agree on N, M and
// every (value, count) pair, in order, of their three histograms.
func sameHistograms(t *testing.T, label string, got, want Profile) {
	t.Helper()
	if got.N != want.N || got.M != want.M {
		t.Fatalf("%s: N,M = %d,%d; reference %d,%d", label, got.N, got.M, want.N, want.M)
	}
	for _, h := range []struct {
		name     string
		got, ref TailSum
	}{
		{"Reuse", got.Reuse, want.Reuse},
		{"First", got.First, want.First},
		{"Last", got.Last, want.Last},
	} {
		g, r := pairs(h.got), pairs(h.ref)
		if len(g) != len(r) {
			t.Fatalf("%s: %s histogram has %d entries, reference %d", label, h.name, len(g), len(r))
		}
		for i := range g {
			if g[i] != r[i] {
				t.Fatalf("%s: %s entry %d is (value %d, count %d), reference (%d, %d)",
					label, h.name, i, g[i][0], g[i][1], r[i][0], r[i][1])
			}
		}
	}
}

// pairs lists a TailSum's (value, count) pairs in Each order.
func pairs(ts TailSum) [][2]int64 {
	var out [][2]int64
	ts.Each(func(v, c int64) { out = append(out, [2]int64{v, c}) })
	return out
}
