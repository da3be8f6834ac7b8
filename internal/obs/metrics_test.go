package obs

import (
	"context"
	"sync"
	"testing"
)

// Concurrent counter/gauge/histogram updates must be race-clean (this
// file runs under -race in the tier-1 gate) and lose no updates.
func TestMetricsConcurrent(t *testing.T) {
	reg := NewRegistry()
	const goroutines = 8
	const perG = 10000

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Handles are fetched inside the goroutine so GetOrCreate
			// races are exercised too.
			c := reg.Counter("ops_total")
			gauge := reg.Gauge("inflight")
			h := reg.Histogram("latency_ns", DurationBuckets())
			for i := 0; i < perG; i++ {
				c.Inc()
				gauge.Add(1)
				gauge.Add(-1)
				h.Observe(int64(i%4) * 500_000_000) // 0, 0.5s, 1s, 1.5s
			}
		}(g)
	}
	wg.Wait()

	snap := reg.Snapshot()
	if got := snap.Counters["ops_total"]; got != goroutines*perG {
		t.Errorf("ops_total = %d, want %d", got, goroutines*perG)
	}
	if got := snap.Gauges["inflight"]; got != 0 {
		t.Errorf("inflight = %d, want 0", got)
	}
	h := snap.Histograms["latency_ns"]
	if h.Count != goroutines*perG {
		t.Errorf("histogram count = %d, want %d", h.Count, goroutines*perG)
	}
	var bucketSum int64
	for _, b := range h.Buckets {
		bucketSum += b.Count
	}
	if bucketSum != h.Count {
		t.Errorf("bucket counts sum to %d, want %d", bucketSum, h.Count)
	}
}

// Histogram bucketing: values at, below, and above the bounds land in
// the documented buckets (inclusive upper bound, implicit +Inf tail).
func TestHistogramBuckets(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("h", []int64{10, 100})
	for _, v := range []int64{0, 10, 11, 100, 101, 1 << 40} {
		h.Observe(v)
	}
	s := reg.Snapshot().Histograms["h"]
	if s.Count != 6 {
		t.Fatalf("count = %d, want 6", s.Count)
	}
	want := map[int64]int64{10: 2, 100: 2} // plus +Inf: 2
	var infCount int64
	for _, b := range s.Buckets {
		if b.Inf {
			infCount = b.Count
			continue
		}
		if b.Count != want[b.LE] {
			t.Errorf("bucket le=%d count = %d, want %d", b.LE, b.Count, want[b.LE])
		}
	}
	if infCount != 2 {
		t.Errorf("+Inf bucket count = %d, want 2", infCount)
	}
	wantSum := int64(0 + 10 + 11 + 100 + 101 + 1<<40)
	if s.Sum != wantSum {
		t.Errorf("sum = %d, want %d", s.Sum, wantSum)
	}
}

// Every instrumentation entry point must be a no-op on nil receivers —
// that is the contract that keeps the disabled-registry hot path free.
func TestNilSafety(t *testing.T) {
	var reg *Registry
	reg.Counter("c").Add(5)
	reg.Counter("c").Inc()
	reg.Gauge("g").Set(1)
	reg.Gauge("g").Add(-1)
	reg.Histogram("h", DurationBuckets()).Observe(7)
	_, sp := Start(context.Background(), "stage", CatStage) // registry disabled: no sink
	sp.End()
	_, sp = Start(nil, "stage", CatStage)
	sp.End()
	if got := reg.Counter("c").Value(); got != 0 {
		t.Errorf("nil counter value = %d, want 0", got)
	}
	if got := reg.Gauge("g").Value(); got != 0 {
		t.Errorf("nil gauge value = %d, want 0", got)
	}
	snap := reg.Snapshot()
	if len(snap.Counters) != 0 || len(snap.Gauges) != 0 || len(snap.Histograms) != 0 || len(snap.Spans) != 0 {
		t.Errorf("nil registry snapshot not empty: %+v", snap)
	}
	var r *Reporter
	r.Printf("dropped %d", 1)
	r.Println("dropped")
}

// The global enable switch: Enabled is nil until Enable installs a
// registry, and instrumented call chains work in both states.
func TestEnableDisable(t *testing.T) {
	if Enabled() != nil {
		t.Fatal("registry enabled at test start")
	}
	Enabled().Counter("x").Inc() // must not panic while disabled

	reg := NewRegistry()
	Enable(reg)
	defer Enable(nil)
	Enabled().Counter("x").Add(2)
	if got := reg.Counter("x").Value(); got != 2 {
		t.Errorf("counter via Enabled() = %d, want 2", got)
	}
	Enable(nil)
	if Enabled() != nil {
		t.Error("Enable(nil) did not disable the registry")
	}
}

// Spans record in completion order and measure non-negative durations.
func TestSpans(t *testing.T) {
	reg := NewRegistry()
	Enable(reg)
	defer Enable(nil)
	_, s1 := Start(context.Background(), "profile", CatStage)
	s1.End()
	_, s2 := Start(context.Background(), "sweep", CatStage)
	s2.End()
	spans := reg.Snapshot().Spans
	if len(spans) != 2 || spans[0].Name != "profile" || spans[1].Name != "sweep" {
		t.Fatalf("spans = %+v, want [profile sweep]", spans)
	}
	for _, s := range spans {
		if s.WallNS < 0 || s.CPUNS < 0 {
			t.Errorf("span %s has negative duration: %+v", s.Name, s)
		}
	}
}
