package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the tracer sink of the span model (span.go): a
// hierarchical, time-resolved trace collector. Every traced span —
// per-group DP solves, DP pool layers, reuse shards, cache simulations,
// workload profiling passes, sweep groups, request stages, and
// the manifest's stages — ends as a TraceEvent carrying its span ID,
// its parent's ID, a lane (worker/goroutine row), and wall-clock
// start/duration relative to the tracer's epoch. The whole set exports
// as Chrome trace_event JSON (traceexport.go) that loads directly in
// Perfetto or chrome://tracing.
//
// The tracer is nil-safe end to end: with no tracer enabled, Start
// allocates nothing unless another sink wants the span, so the
// instrumented hot paths cost nothing in the default configuration
// (the cmd/obsgate ObsOverhead gate covers this).

// numTraceShards is the number of lock shards in the tracer's event
// buffer. Completed spans append under one shard mutex chosen by span
// ID, so concurrent sweep workers rarely contend.
const numTraceShards = 16

// DefaultTraceEventCap bounds the tracer's in-memory event buffer. A
// full -small experiments run records a few tens of thousands of
// events (~100 B each); the cap exists so a pathological caller cannot
// grow the buffer without bound. Events past the cap still stream to
// the -trace-events sink (which is bounded by disk, not memory) and
// are counted in Dropped.
const DefaultTraceEventCap = 1 << 18

// A TraceEvent is one completed span: an operation with identity,
// hierarchy, placement, and timing. StartNS is the offset from the
// tracer's epoch, so events are orderable without wall-clock stamps.
type TraceEvent struct {
	ID      int64            `json:"id"`
	Parent  int64            `json:"parent,omitempty"`
	Name    string           `json:"name"`
	Cat     string           `json:"cat,omitempty"`
	Lane    int64            `json:"lane"`
	StartNS int64            `json:"start_ns"`
	DurNS   int64            `json:"dur_ns"`
	Args    map[string]int64 `json:"args,omitempty"`
}

type traceShard struct {
	mu     sync.Mutex
	events []TraceEvent
}

// A Tracer collects TraceEvents. The zero value is not usable; call
// NewTracer. All methods are safe for concurrent use, and all methods
// on a nil *Tracer are no-ops.
type Tracer struct {
	epoch   time.Time
	nextID  atomic.Int64
	count   atomic.Int64
	dropped atomic.Int64
	cap     int64
	sink    *TraceWriter
	shards  [numTraceShards]traceShard
}

// NewTracer returns an empty tracer whose in-memory buffer holds at
// most capEvents events (<= 0 means DefaultTraceEventCap). sink, when
// non-nil, receives every completed event as it ends — including those
// past the in-memory cap — and is committed by Close.
func NewTracer(capEvents int, sink *TraceWriter) *Tracer {
	if capEvents <= 0 {
		capEvents = DefaultTraceEventCap
	}
	return &Tracer{epoch: time.Now(), cap: int64(capEvents), sink: sink}
}

// activeTracer is the process-wide tracer, nil unless a command enabled
// -trace-events (or a test installed one). Mirrors the Registry's
// Enable/Enabled pattern.
var activeTracer atomic.Pointer[Tracer]

// EnableTracer installs t as the process-global tracer;
// EnableTracer(nil) disables tracing again.
func EnableTracer(t *Tracer) { activeTracer.Store(t) }

// ActiveTracer returns the process-global tracer, or nil when tracing
// is disabled.
func ActiveTracer() *Tracer { return activeTracer.Load() }

// record stores one completed span's event: into the sharded in-memory
// buffer (up to the cap) and, when a sink is attached, into the
// streamed trace-events file.
func (t *Tracer) record(ev TraceEvent) {
	if t.count.Add(1) <= t.cap {
		sh := &t.shards[ev.ID%numTraceShards]
		sh.mu.Lock()
		sh.events = append(sh.events, ev)
		sh.mu.Unlock()
	} else {
		t.dropped.Add(1)
	}
	if t.sink != nil {
		t.sink.emit(ev)
	}
}

// Events returns every buffered event, sorted by start offset (ties by
// span ID). The result is a copy; the tracer keeps collecting.
func (t *Tracer) Events() []TraceEvent {
	if t == nil {
		return nil
	}
	var out []TraceEvent
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		out = append(out, sh.events...)
		sh.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].StartNS != out[j].StartNS {
			return out[i].StartNS < out[j].StartNS
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// Dropped reports how many completed spans were discarded from the
// in-memory buffer because the cap was reached (streamed sinks still
// received them).
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	return t.dropped.Load()
}

// Close commits the tracer's streamed sink, if any, and returns its
// error. The in-memory buffer stays readable. Safe on a nil tracer and
// idempotent through the sink's own once-guard.
func (t *Tracer) Close() error {
	if t == nil || t.sink == nil {
		return nil
	}
	return t.sink.Close()
}
