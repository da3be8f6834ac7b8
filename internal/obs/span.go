package obs

import (
	"context"
	"log/slog"
	rtrace "runtime/trace"
	"slices"
	"sync"
	"time"
)

// This file is the one span model. Start opens a span, StartRequest
// opens the root span of one served request, and End measures the
// duration once and feeds every sink that applies:
//
//   - Tracer (tracer.go): when a tracer is enabled, a TraceEvent.
//   - Flight record (flight.go): when the span is a direct child of a
//     request root, a StageTiming on the root's RequestRecord; the
//     root's own End files that record into the flight recorder.
//   - Manifest (manifest.go): when the category is CatStage and a
//     registry is enabled, a SpanRecord with the process-CPU delta and
//     a runtime/trace region.
//
// A span no sink wants is never allocated: Start returns ctx unchanged
// and a nil *Span whose methods are no-ops — an atomic load and one
// context lookup, so the DP kernel's per-layer spans cost nothing in
// the default configuration.

// CatStage is the category of the coarse pipeline stages ("profile",
// "sweep", …) that label the run manifest's stages. Stage names are
// pinned by manifest goldens rather than the package-prefixed span
// namespace.
const CatStage = "stage"

// maxSpanRecords caps the registry's stage-span list. Stage spans are
// coarse (a handful per run), so hitting the cap means an instrumented
// loop is misusing CatStage; rather than growing without bound the
// registry drops the overflow, logs one warning, and surfaces the drop
// count as the obs_spans_dropped_total counter in snapshots and
// manifests. Fine-grained, high-volume timing belongs to the tracer,
// whose buffer has its own cap.
const maxSpanRecords = 4096

// A SpanRecord is one completed pipeline stage: its name, the offset of
// its start from the registry's creation (so manifest stages are
// orderable even when stages overlap), its wall-clock duration, and the
// process CPU time (user+system, all threads) that elapsed while it
// ran. CPU time is a process-wide delta — concurrent stages each see
// the whole process's burn — which is exactly the number the manifest
// wants: how much CPU the run spent while this stage was the active
// phase.
type SpanRecord struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	WallNS  int64  `json:"wall_ns"`
	CPUNS   int64  `json:"cpu_ns"`
}

// A Span is one in-flight timed operation. End records it into every
// sink that applies. A nil Span is a no-op, so call sites never branch
// on whether anything is listening.
type Span struct {
	name  string
	cat   string
	start time.Time

	// Tracer sink.
	tr     *Tracer
	id     int64
	parent int64
	lane   int64
	args   map[string]int64

	// Flight-record sink: the request root this span is a direct child of.
	root *Span

	// Manifest sink.
	reg      *Registry
	startCPU time.Duration
	region   *rtrace.Region

	// A request root's in-progress flight record (StartRequest only).
	mu  sync.Mutex
	req *RequestRecord
}

// spanRef is the context payload: the innermost live span (parent of
// spans started under the context), the enclosing request root, and the
// lane assigned to this goroutine's work.
type spanRef struct {
	span *Span
	req  *Span
	lane int64
}

type spanKey struct{}

func refFrom(ctx context.Context) spanRef {
	if ctx == nil {
		return spanRef{}
	}
	ref, _ := ctx.Value(spanKey{}).(spanRef)
	return ref
}

// Start begins a span named name in category cat, parented under the
// span carried by ctx. The returned context carries the new span, so
// spans started under it become its children. When no sink applies —
// no tracer, not a direct child of a request root, and not a stage span
// with a registry enabled — Start returns ctx unchanged and a nil span.
// ctx may be nil.
func Start(ctx context.Context, name, cat string) (context.Context, *Span) {
	ref := refFrom(ctx)
	tr := ActiveTracer()
	var reg *Registry
	if cat == CatStage {
		reg = Enabled()
	}
	var root *Span
	if ref.req != nil && ref.span == ref.req {
		root = ref.req
	}
	if tr == nil && reg == nil && root == nil {
		return ctx, nil
	}
	s := &Span{name: name, cat: cat, tr: tr, lane: ref.lane, root: root, reg: reg}
	return s.begin(ctx, ref)
}

// StartRequest begins the root span of one served request: a span like
// any other whose direct children also report their timings into its
// RequestRecord, which End files into the active flight recorder. tc
// is the request's trace identity (TraceIDFrom reads it back from any
// context under the root). ctx may be nil.
func StartRequest(ctx context.Context, name, cat string, tc TraceContext) (context.Context, *Span) {
	ref := refFrom(ctx)
	s := &Span{name: name, cat: cat, tr: ActiveTracer(), lane: ref.lane,
		req: &RequestRecord{TraceID: tc.TraceIDString()}}
	ref.req = s
	return s.begin(ctx, ref)
}

// begin stamps the span's identity and clocks and returns the context
// that carries it.
func (s *Span) begin(ctx context.Context, ref spanRef) (context.Context, *Span) {
	if ctx == nil {
		ctx = context.Background()
	}
	if s.tr != nil {
		s.id = s.tr.nextID.Add(1)
		if ref.span != nil {
			s.parent = ref.span.id
		}
	}
	if s.reg != nil {
		s.region = rtrace.StartRegion(ctx, s.name)
		s.startCPU = processCPUTime()
	}
	ref.span = s
	s.start = time.Now()
	return context.WithValue(ctx, spanKey{}, ref), s
}

// WithTraceLane tags ctx with a lane number: spans started under the
// returned context (and their descendants) render on that row of the
// trace timeline. Lane numbers are caller-chosen labels — sweep workers
// use their worker index, reuse shards their shard index — and need not
// be unique across pipeline phases.
func WithTraceLane(ctx context.Context, lane int64) context.Context {
	if ctx == nil {
		ctx = context.Background()
	}
	ref := refFrom(ctx)
	ref.lane = lane
	return context.WithValue(ctx, spanKey{}, ref)
}

// Arg attaches a small numeric argument to the span's trace event.
// Returns the span for chaining. Must not be called concurrently with
// End; a no-op unless the span is traced.
func (s *Span) Arg(key string, v int64) *Span {
	if s == nil || s.tr == nil {
		return s
	}
	if s.args == nil {
		s.args = make(map[string]int64, 4)
	}
	s.args[key] = v
	return s
}

// End completes the span: it measures the duration once and records it
// into each sink the span was started for.
func (s *Span) End() {
	if s == nil {
		return
	}
	dur := time.Since(s.start)
	if s.tr != nil {
		s.tr.record(TraceEvent{
			ID:      s.id,
			Parent:  s.parent,
			Name:    s.name,
			Cat:     s.cat,
			Lane:    s.lane,
			StartNS: s.start.Sub(s.tr.epoch).Nanoseconds(),
			DurNS:   dur.Nanoseconds(),
			Args:    s.args,
		})
	}
	if s.root != nil {
		s.root.update(func(r *RequestRecord) {
			r.Stages = append(r.Stages, StageTiming{Name: s.name, DurNS: dur.Nanoseconds()})
		})
	}
	if s.reg != nil {
		s.reg.addStage(s, dur)
	}
	if s.req != nil {
		fr := ActiveFlightRecorder()
		s.update(func(r *RequestRecord) {
			if fr != nil {
				r.StartNS = s.start.Sub(fr.start).Nanoseconds()
			}
			r.DurNS = dur.Nanoseconds()
			r.Stages = slices.Clip(r.Stages) // a late stage must not write into the filed record
		})
		fr.Record(s.Record())
	}
}

// addStage appends a stage span's record to the registry (dropping and
// counting it past the cap), ends its runtime/trace region, and logs
// the stage timing at debug level.
func (r *Registry) addStage(s *Span, dur time.Duration) {
	rec := SpanRecord{
		Name:    s.name,
		StartNS: s.start.Sub(r.start).Nanoseconds(),
		WallNS:  dur.Nanoseconds(),
		CPUNS:   (processCPUTime() - s.startCPU).Nanoseconds(),
	}
	s.region.End()
	var dropped int64
	r.spanMu.Lock()
	if len(r.spans) < maxSpanRecords {
		r.spans = append(r.spans, rec)
	} else {
		r.spansDropped++
		dropped = r.spansDropped
	}
	r.spanMu.Unlock()
	if dropped == 1 {
		Logger().Warn("stage span cap reached; dropping further spans",
			"cap", maxSpanRecords, "stage", s.name)
	}
	Logger().LogAttrs(context.Background(), slog.LevelDebug, "stage done",
		slog.String("stage", s.name),
		slog.Duration("wall", dur),
		slog.Duration("cpu", time.Duration(rec.CPUNS)))
}

// RequestFrom returns the request root enclosing ctx, or nil outside a
// request (direct library calls, background work, a nil ctx). The
// setters below are nil-safe, so instrumented code reports without
// branching: obs.RequestFrom(ctx).SetTenant(name).
func RequestFrom(ctx context.Context) *Span { return refFrom(ctx).req }

// TraceIDFrom returns the 32-hex trace ID of the request enclosing ctx,
// or "" outside a request — the form instrumentation wants for error
// envelopes and plan provenance.
func TraceIDFrom(ctx context.Context) string {
	if root := RequestFrom(ctx); root != nil {
		return root.req.TraceID // immutable after StartRequest
	}
	return ""
}

// update applies f to the root's record under its lock; a no-op on a
// nil span or one that is not a request root.
func (s *Span) update(f func(*RequestRecord)) {
	if s == nil || s.req == nil {
		return
	}
	s.mu.Lock()
	f(s.req)
	s.mu.Unlock()
}

// SetRoute records the request's method and API route.
func (s *Span) SetRoute(method, route string) {
	s.update(func(r *RequestRecord) { r.Method, r.Route = method, route })
}

// SetStatus records the response's HTTP status.
func (s *Span) SetStatus(status int) { s.update(func(r *RequestRecord) { r.Status = status }) }

// SetTenant records which tenant the request concerns.
func (s *Span) SetTenant(name string) { s.update(func(r *RequestRecord) { r.Tenant = name }) }

// SetCode records the envelope error code the request ended with.
func (s *Span) SetCode(code string) { s.update(func(r *RequestRecord) { r.Code = code }) }

// SetOutcome records the request's admission outcome.
func (s *Span) SetOutcome(o string) { s.update(func(r *RequestRecord) { r.Outcome = o }) }

// SetEpoch records the plan epoch the request served or observed,
// correlating its flight record with the /debug/epochs timeline.
func (s *Span) SetEpoch(epoch int64) { s.update(func(r *RequestRecord) { r.Epoch = epoch }) }

// Record returns a copy of a request root's record — complete with
// duration and stages once End has run. Zero on a nil or non-root span.
func (s *Span) Record() RequestRecord {
	var rec RequestRecord
	s.update(func(r *RequestRecord) { rec = *r })
	return rec
}
