package obs

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestChildSetBasic(t *testing.T) {
	reg := NewRegistry()
	cs := reg.ChildSet("svc.tenant.", 4)
	cs.Add("acme", "requests", 1)
	cs.Add("acme", "requests", 1)
	cs.Add("beta", "requests", 1)

	snap := reg.Snapshot()
	if got := snap.Counters["svc.tenant.acme.requests"]; got != 2 {
		t.Fatalf("acme.requests = %d, want 2", got)
	}
	if got := snap.Counters["svc.tenant.beta.requests"]; got != 1 {
		t.Fatalf("beta.requests = %d, want 1", got)
	}
	if got := snap.Gauges["svc.tenant.labels"]; got != 2 {
		t.Fatalf("labels gauge = %d, want 2", got)
	}
	if _, ok := snap.Counters["svc.tenant.evicted"]; ok {
		t.Fatal("evicted counter present with no evictions")
	}

	// Same prefix returns the same set; the first capacity wins.
	if reg.ChildSet("svc.tenant.", 9999) != cs {
		t.Fatal("second ChildSet call returned a different set")
	}
}

// The acceptance criterion for bounded cardinality: a 10k-label flood
// leaves at most cap live labels, everything older absorbed into the
// overflow child with set-wide totals preserved exactly.
func TestChildSetFloodStaysCapped(t *testing.T) {
	const capN = 16
	const flood = 10_000
	reg := NewRegistry()
	cs := reg.ChildSet("svc.tenant.", capN)
	for i := 0; i < flood; i++ {
		cs.Add(fmt.Sprintf("tenant%05d", i), "requests", 1)
	}
	live, evicted := cs.Labels()
	if live > capN {
		t.Fatalf("live labels = %d, want <= %d", live, capN)
	}
	if evicted != flood-capN {
		t.Fatalf("evicted = %d, want %d", evicted, flood-capN)
	}

	snap := reg.Snapshot()
	var total int64
	series := 0
	for name, v := range snap.Counters {
		if strings.HasSuffix(name, ".requests") && strings.HasPrefix(name, "svc.tenant.") {
			total += v
			series++
		}
	}
	if total != flood {
		t.Fatalf("sum over all tenant series = %d, want %d (eviction must absorb, not drop)", total, flood)
	}
	// live labels + the overflow child is the entire series universe.
	if series != capN+1 {
		t.Fatalf("exported series = %d, want %d live + 1 overflow", series, capN+1)
	}
	if snap.Counters["svc.tenant.other.requests"] != flood-capN {
		t.Fatalf("overflow bucket = %d, want %d", snap.Counters["svc.tenant.other.requests"], flood-capN)
	}
	if snap.Counters["svc.tenant.evicted"] != flood-capN {
		t.Fatalf("evicted counter = %d, want %d", snap.Counters["svc.tenant.evicted"], flood-capN)
	}
}

func TestChildSetLRURecency(t *testing.T) {
	reg := NewRegistry()
	cs := reg.ChildSet("svc.tenant.", 2)
	cs.Add("a", "requests", 1)
	cs.Add("b", "requests", 1)
	cs.Add("a", "requests", 1) // refresh a; b is now LRU
	cs.Add("c", "requests", 1) // evicts b

	snap := reg.Snapshot()
	if _, ok := snap.Counters["svc.tenant.b.requests"]; ok {
		t.Fatal("b should have been evicted (a was touched more recently)")
	}
	if got := snap.Counters["svc.tenant.a.requests"]; got != 2 {
		t.Fatalf("a.requests = %d, want 2 (recency refresh must keep the live series)", got)
	}
	if got := snap.Counters["svc.tenant.other.requests"]; got != 1 {
		t.Fatalf("overflow = %d, want b's count of 1", got)
	}
}

func TestChildSetHistogramAbsorb(t *testing.T) {
	reg := NewRegistry()
	cs := reg.ChildSet("svc.tenant.", 1)
	bounds := []int64{10, 100}
	cs.Observe("a", "latency_ns", bounds, 5)
	cs.Observe("a", "latency_ns", bounds, 50)
	cs.Observe("b", "latency_ns", bounds, 500) // evicts a

	snap := reg.Snapshot()
	oh := snap.Histograms["svc.tenant.other.latency_ns"]
	if oh.Count != 2 || oh.Sum != 55 {
		t.Fatalf("absorbed histogram = count %d sum %d, want 2/55", oh.Count, oh.Sum)
	}
	bh := snap.Histograms["svc.tenant.b.latency_ns"]
	if bh.Count != 1 || bh.Sum != 500 {
		t.Fatalf("live histogram = count %d sum %d, want 1/500", bh.Count, bh.Sum)
	}
}

func TestChildSetSanitizeAndOverflowLabel(t *testing.T) {
	reg := NewRegistry()
	cs := reg.ChildSet("svc.tenant.", 8)
	cs.Add("Team/Alpha!", "requests", 1)
	cs.Add("", "requests", 1)
	cs.Add(strings.Repeat("x", 500), "requests", 1)
	// The reserved label addresses the overflow child directly and never
	// occupies a live slot.
	cs.Add(OverflowLabel, "requests", 1)
	cs.Add("OTHER", "requests", 1) // sanitizes to the reserved label

	snap := reg.Snapshot()
	if got := snap.Counters["svc.tenant.team_alpha_.requests"]; got != 1 {
		t.Fatalf("sanitized label series = %d, want 1", got)
	}
	if got := snap.Counters["svc.tenant._.requests"]; got != 1 {
		t.Fatalf("empty-label series = %d, want 1", got)
	}
	long := "svc.tenant." + strings.Repeat("x", maxLabelLen) + ".requests"
	if got := snap.Counters[long]; got != 1 {
		t.Fatalf("long label not truncated to %d bytes", maxLabelLen)
	}
	if got := snap.Counters["svc.tenant.other.requests"]; got != 2 {
		t.Fatalf("reserved-label series = %d, want 2", got)
	}
	if live, _ := cs.Labels(); live != 3 {
		t.Fatalf("live labels = %d, want 3 (reserved label must not take a slot)", live)
	}
}

func TestChildSetNilSafety(t *testing.T) {
	var reg *Registry
	cs := reg.ChildSet("svc.tenant.", 4)
	if cs != nil {
		t.Fatal("nil registry must hand out a nil set")
	}
	// Every update must be callable without guards.
	cs.Add("a", "requests", 1)
	cs.Observe("a", "latency_ns", DurationBuckets(), 1)
	if live, evicted := cs.Labels(); live != 0 || evicted != 0 {
		t.Fatal("nil set reported labels")
	}
}

func TestChildSetConcurrent(t *testing.T) {
	reg := NewRegistry()
	cs := reg.ChildSet("svc.tenant.", 8)
	const goroutines = 8
	const perG = 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				// 32 distinct labels across 8 live slots forces constant
				// eviction under contention.
				cs.Add(fmt.Sprintf("t%d", (g*perG+i)%32), "requests", 1)
			}
		}(g)
	}
	wg.Wait()
	var total int64
	for name, v := range reg.Snapshot().Counters {
		if strings.HasSuffix(name, ".requests") {
			total += v
		}
	}
	if total != goroutines*perG {
		t.Fatalf("total = %d, want %d", total, goroutines*perG)
	}
	if live, _ := cs.Labels(); live > 8 {
		t.Fatalf("live labels = %d, want <= 8", live)
	}
}
