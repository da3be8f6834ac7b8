package obs

import (
	"hash/fnv"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// numRegShards is the number of lock shards in a Registry's name→metric
// index. Lookups take one shard's RWMutex read lock; updates to the
// metric handles themselves are lock-free atomics, so the shards exist
// only to keep concurrent GetOrCreate lookups from serializing on a
// single mutex.
const numRegShards = 8

// A Registry is a set of named metrics. The zero value is not usable;
// call NewRegistry. All methods are safe for concurrent use, and all
// methods on a nil *Registry are no-ops returning nil handles, so
// instrumented code never branches on whether observability is enabled.
type Registry struct {
	shards [numRegShards]regShard

	// start anchors span StartNS offsets: every SpanRecord's StartNS is
	// relative to the registry's creation, making stages orderable
	// without wall-clock stamps in the manifest.
	start time.Time

	// spans is the ordered list of completed stage spans (span.go),
	// capped at maxSpanRecords; spansDropped counts the overflow.
	spanMu       sync.Mutex
	spans        []SpanRecord
	spansDropped int64

	// childSets are the bounded per-label metric families (childset.go),
	// keyed by name prefix; their series fold into snapshots flat.
	csMu      sync.Mutex
	childSets map[string]*ChildSet
}

type regShard struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	r := &Registry{start: time.Now(), childSets: make(map[string]*ChildSet)}
	for i := range r.shards {
		r.shards[i].counters = make(map[string]*Counter)
		r.shards[i].gauges = make(map[string]*Gauge)
		r.shards[i].hists = make(map[string]*Histogram)
	}
	return r
}

func (r *Registry) shard(name string) *regShard {
	h := fnv.New32a()
	h.Write([]byte(name))
	return &r.shards[h.Sum32()%numRegShards]
}

// Counter returns the named counter, creating it on first use.
// A nil registry returns a nil handle whose methods are no-ops.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	s := r.shard(name)
	s.mu.RLock()
	c := s.counters[name]
	s.mu.RUnlock()
	if c != nil {
		return c
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if c = s.counters[name]; c == nil {
		c = &Counter{}
		s.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	s := r.shard(name)
	s.mu.RLock()
	g := s.gauges[name]
	s.mu.RUnlock()
	if g != nil {
		return g
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if g = s.gauges[name]; g == nil {
		g = &Gauge{}
		s.gauges[name] = g
	}
	return g
}

// Histogram returns the named fixed-bucket histogram, creating it on
// first use with the given ascending upper bounds (an implicit +Inf
// bucket is appended). Later calls with the same name reuse the first
// creation's bounds. A nil registry returns a nil no-op handle.
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	if r == nil {
		return nil
	}
	s := r.shard(name)
	s.mu.RLock()
	h := s.hists[name]
	s.mu.RUnlock()
	if h != nil {
		return h
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if h = s.hists[name]; h == nil {
		h = newHistogram(bounds)
		s.hists[name] = h
	}
	return h
}

func newHistogram(bounds []int64) *Histogram {
	b := append([]int64(nil), bounds...)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// A Counter is a monotonically increasing integer. Updates are a single
// atomic add; a nil handle is a no-op.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on a nil handle).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// A Gauge is an instantaneous integer value. A nil handle is a no-op.
type Gauge struct{ v atomic.Int64 }

// Set replaces the gauge value.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add adjusts the gauge by delta (negative deltas decrease it).
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value returns the current value (0 on a nil handle).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// A Histogram counts observations into fixed buckets. The bounds are
// ascending inclusive upper limits; observations above the last bound
// land in an implicit +Inf bucket. Each bucket is its own atomic, so
// concurrent Observe calls contend only when they hit the same bucket,
// and never take a lock. A nil handle is a no-op.
type Histogram struct {
	bounds []int64
	counts []atomic.Int64 // len(bounds)+1; last is the +Inf bucket
	count  atomic.Int64
	sum    atomic.Int64
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	i := sort.Search(len(h.bounds), func(i int) bool { return v <= h.bounds[i] })
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// merge folds src's buckets into h. Matching bounds merge bucket by
// bucket; mismatched ones (never produced by one call site, but merge
// must not corrupt) collapse src's whole count into h's +Inf bucket.
// The sum and total count fold either way, so set-wide totals are exact.
func (h *Histogram) merge(src *Histogram) {
	if h == nil || src == nil {
		return
	}
	same := len(h.bounds) == len(src.bounds)
	if same {
		for i := range h.bounds {
			if h.bounds[i] != src.bounds[i] {
				same = false
				break
			}
		}
	}
	if same {
		for i := range src.counts {
			h.counts[i].Add(src.counts[i].Load())
		}
	} else {
		h.counts[len(h.counts)-1].Add(src.count.Load())
	}
	h.count.Add(src.count.Load())
	h.sum.Add(src.sum.Load())
}

// BucketCount is one histogram bucket in a summary: the inclusive upper
// bound (0 marks the +Inf bucket via the Inf field) and its count.
type BucketCount struct {
	LE    int64 `json:"le"`
	Inf   bool  `json:"inf,omitempty"`
	Count int64 `json:"count"`
}

// HistogramSummary is a frozen histogram: total count, sum of observed
// values, and the per-bucket counts. Empty buckets are elided so
// summaries stay compact in manifests.
type HistogramSummary struct {
	Count   int64         `json:"count"`
	Sum     int64         `json:"sum"`
	Buckets []BucketCount `json:"buckets,omitempty"`
}

func (h *Histogram) summary() HistogramSummary {
	s := HistogramSummary{Count: h.count.Load(), Sum: h.sum.Load()}
	for i := range h.counts {
		c := h.counts[i].Load()
		if c == 0 {
			continue
		}
		b := BucketCount{Count: c}
		if i < len(h.bounds) {
			b.LE = h.bounds[i]
		} else {
			b.Inf = true
		}
		s.Buckets = append(s.Buckets, b)
	}
	return s
}

// A Snapshot is a frozen, export-ready view of a registry: plain maps
// and slices with no atomics, safe to marshal. Maps marshal with sorted
// keys, so snapshot JSON is deterministic for deterministic values.
type Snapshot struct {
	Counters   map[string]int64            `json:"counters,omitempty"`
	Gauges     map[string]int64            `json:"gauges,omitempty"`
	Histograms map[string]HistogramSummary `json:"histograms,omitempty"`
	Spans      []SpanRecord                `json:"spans,omitempty"`
}

// Snapshot freezes the registry. A nil registry yields a zero Snapshot.
func (r *Registry) Snapshot() Snapshot {
	var snap Snapshot
	if r == nil {
		return snap
	}
	snap.Counters = make(map[string]int64)
	snap.Gauges = make(map[string]int64)
	snap.Histograms = make(map[string]HistogramSummary)
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.RLock()
		for name, c := range s.counters {
			snap.Counters[name] = c.Value()
		}
		for name, g := range s.gauges {
			snap.Gauges[name] = g.Value()
		}
		for name, h := range s.hists {
			snap.Histograms[name] = h.summary()
		}
		s.mu.RUnlock()
	}
	// Child sets fold in flat (prefix+label+"."+suffix), so every
	// exporter that reads snapshots — the Prometheus exposition and
	// manifests — sees the per-label series without knowing about the
	// bound index.
	r.csMu.Lock()
	for _, cs := range r.childSets {
		cs.snapshotInto(&snap)
	}
	r.csMu.Unlock()
	r.spanMu.Lock()
	snap.Spans = append([]SpanRecord(nil), r.spans...)
	if r.spansDropped > 0 {
		// Surface the overflow where dashboards and manifests already
		// look, without a dedicated schema field.
		snap.Counters["obs_spans_dropped_total"] = r.spansDropped
	}
	r.spanMu.Unlock()
	return snap
}

// DurationBuckets returns the default histogram bounds for durations in
// nanoseconds: a coarse 1-3-10 exponential ladder from 100µs to 30s.
func DurationBuckets() []int64 {
	return []int64{
		100_000, 300_000, // 100µs, 300µs
		1_000_000, 3_000_000, // 1ms, 3ms
		10_000_000, 30_000_000, // 10ms, 30ms
		100_000_000, 300_000_000, // 100ms, 300ms
		1_000_000_000, 3_000_000_000, // 1s, 3s
		10_000_000_000, 30_000_000_000, // 10s, 30s
	}
}
