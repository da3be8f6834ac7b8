package obs

import (
	"context"
	"runtime"
	"testing"
	"time"
)

// The sampler must record history while running and always take a final
// sample at Stop, so even sub-interval runs capture their end state.
func TestSamplerHistory(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("work_total").Add(3)
	s := StartSampler(context.Background(), reg, time.Millisecond, 16)
	if s == nil {
		t.Fatal("StartSampler returned nil for a valid configuration")
	}
	deadline := time.Now().Add(5 * time.Second)
	for len(s.History()) == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	reg.Counter("work_total").Add(4)
	s.Stop()
	s.Stop() // idempotent

	hist := s.History()
	if len(hist) == 0 {
		t.Fatal("no samples recorded")
	}
	last := hist[len(hist)-1]
	if last.Counters["work_total"] != 7 {
		t.Errorf("final sample work_total = %d, want 7 (Stop must take a last sample)",
			last.Counters["work_total"])
	}
	for i := 1; i < len(hist); i++ {
		if hist[i].AtNS < hist[i-1].AtNS {
			t.Fatal("history not chronological")
		}
	}
	if s.Interval() != time.Millisecond {
		t.Errorf("Interval = %v, want 1ms", s.Interval())
	}
}

// The ring buffer bounds retained history to its capacity, keeping the
// newest window.
func TestSamplerRingBound(t *testing.T) {
	reg := NewRegistry()
	s := StartSampler(context.Background(), reg, 100*time.Microsecond, 4)
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		s.mu.Lock()
		n := s.n
		s.mu.Unlock()
		if n >= 4 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	s.Stop()
	hist := s.History()
	if len(hist) != 4 {
		t.Fatalf("retained samples = %d, want capacity 4", len(hist))
	}
}

// Stopping the sampler (by Stop or context cancel) must release its
// goroutine — commands run it for the whole process lifetime, tests
// cannot.
func TestSamplerNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	reg := NewRegistry()
	s := StartSampler(context.Background(), reg, time.Millisecond, 8)
	s.Stop()
	waitNoLeak(t, before)

	before = runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	s2 := StartSampler(ctx, reg, time.Millisecond, 8)
	cancel()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-s2.done:
			deadline = time.Time{}
		default:
			time.Sleep(time.Millisecond)
		}
		if deadline.IsZero() {
			break
		}
	}
	s2.Stop() // Stop after cancel is still safe
	waitNoLeak(t, before)
	if len(s2.History()) == 0 {
		t.Error("context cancel did not take a final sample")
	}
}

// Disabled configurations return nil, and every method on a nil sampler
// is inert — commands pass the (possibly nil) handle unconditionally.
func TestSamplerNil(t *testing.T) {
	if s := StartSampler(context.Background(), nil, time.Second, 8); s != nil {
		t.Error("nil registry must disable the sampler")
	}
	if s := StartSampler(context.Background(), NewRegistry(), 0, 8); s != nil {
		t.Error("zero interval must disable the sampler")
	}
	var s *Sampler
	s.Stop()
	if s.History() != nil || s.Interval() != 0 || s.Summaries() != nil {
		t.Error("nil sampler methods are not inert")
	}
	if ActiveSampler() != nil {
		t.Fatal("sampler active at test start")
	}
	EnableSampler(s)
	if ActiveSampler() != nil {
		t.Error("EnableSampler(nil) installed something")
	}
}

// Per-tenant child-set series fold into registry snapshots flat, so the
// sampler's history points carry them like any static counter — and
// their cardinality in each point is capped by the child set's LRU
// bound, keeping the ring's per-point size bounded too.
func TestSamplerHistoryIncludesChildSeries(t *testing.T) {
	reg := NewRegistry()
	cs := reg.ChildSet("svc.tenant.", 4)
	cs.Add("acme", "requests", 5)
	s := StartSampler(context.Background(), reg, time.Millisecond, 16)
	deadline := time.Now().Add(5 * time.Second)
	for len(s.History()) == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	s.Stop()
	hist := s.History()
	if len(hist) == 0 {
		t.Fatal("no samples recorded")
	}
	last := hist[len(hist)-1]
	if last.Counters["svc.tenant.acme.requests"] != 5 {
		t.Fatalf("final sample missing per-tenant series: %v", last.Counters)
	}
	if last.Gauges["svc.tenant.labels"] != 1 {
		t.Fatalf("final sample missing child-set label gauge: %v", last.Gauges)
	}
}

// Summaries reduce the retained window to per-series min/max/rate, with
// the name set from the registry (deterministic) rather than the samples.
func TestSamplerSummaries(t *testing.T) {
	reg := NewRegistry()
	ctr := reg.Counter("jobs_total")
	reg.Gauge("depth")
	s := StartSampler(context.Background(), reg, time.Millisecond, 64)
	ctr.Add(10)
	deadline := time.Now().Add(5 * time.Second)
	for len(s.History()) < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	ctr.Add(10)
	s.Stop()

	sums := s.Summaries()
	js, ok := sums["jobs_total"]
	if !ok {
		t.Fatalf("summaries = %v, missing jobs_total", sums)
	}
	if js.Samples < 2 {
		t.Fatalf("jobs_total samples = %d, want >= 2", js.Samples)
	}
	if js.Min < 0 || js.Max > 20 || js.Min > js.Max {
		t.Errorf("jobs_total min/max = %d/%d, want within [0, 20]", js.Min, js.Max)
	}
	if js.Max != 20 {
		t.Errorf("jobs_total max = %d, want 20 (final sample)", js.Max)
	}
	if js.RatePerSec < 0 {
		t.Errorf("jobs_total rate = %v, want >= 0 for a counter", js.RatePerSec)
	}
	if _, ok := sums["depth"]; !ok {
		t.Error("gauge series missing from summaries")
	}
}
