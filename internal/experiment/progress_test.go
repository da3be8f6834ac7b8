package experiment

import (
	"sort"
	"sync"
	"testing"
)

// progressRecorder collects OnProgress callbacks under a mutex — workers
// invoke the callback concurrently, so the recorder itself is what makes
// this test meaningful under -race.
type progressRecorder struct {
	mu     sync.Mutex
	values []int
	totals []int
}

func (r *progressRecorder) record(processed, total int) {
	r.mu.Lock()
	r.values = append(r.values, processed)
	r.totals = append(r.totals, total)
	r.mu.Unlock()
}

// checkCounts asserts the recorded processed values are exactly
// {1, 2, ..., total}, each reported once: monotone coverage with no gap,
// no duplicate, and in particular no repeated final callback.
func (r *progressRecorder) checkCounts(t *testing.T, total int) {
	t.Helper()
	r.mu.Lock()
	values := append([]int(nil), r.values...)
	totals := append([]int(nil), r.totals...)
	r.mu.Unlock()
	for _, tot := range totals {
		if tot != total {
			t.Fatalf("OnProgress total = %d, want %d", tot, total)
		}
	}
	sort.Ints(values)
	want := make([]int, 0, total)
	for v := 1; v <= total; v++ {
		want = append(want, v)
	}
	if len(values) != len(want) {
		t.Fatalf("OnProgress fired %d times with values %v, want %d values 1..%d",
			len(values), values, len(want), total)
	}
	for i, v := range values {
		if v != want[i] {
			t.Fatalf("OnProgress values (sorted) = %v, want exactly 1..%d each once", values, total)
		}
	}
}

// A fresh parallel sweep reports every count from 1 to the group total
// exactly once, with a constant total.
func TestOnProgressFullSweep(t *testing.T) {
	rec := &progressRecorder{}
	runFault(t, RunOpts{Workers: 4, OnProgress: rec.record})
	rec.checkCounts(t, 20)
}
