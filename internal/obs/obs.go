// Package obs is the pipeline's observability layer: structured logging
// (log/slog with a process-wide swappable handler), a metrics registry
// (counters, gauges, fixed-bucket histograms; lock-sharded lookup,
// lock-free updates), stage spans (wall + process-CPU time plus
// runtime/trace regions), a run manifest flushed through
// internal/atomicio, and an optional debug HTTP server exposing the
// registry in Prometheus text next to net/http/pprof.
//
// Everything is standard library only — the verify gate runs in offline
// containers — and everything is nil-safe: a disabled registry (the
// default) turns every instrumentation call in the hot pipeline into a
// nil-check that costs near zero, so library callers and tests never
// see the machinery unless a command enables it.
//
// The split of responsibilities:
//
//   - Logger()/SetLogger: diagnostics, on stderr by default. Machine
//     events (manifest writes, server lifecycle) log here.
//   - Progressf/SetProgressWriter: human-facing progress and report
//     output, on stdout by default, serialized by a single mutex so
//     lines from concurrent goroutines never interleave mid-line.
//   - Registry: numbers. Enable() installs a process-global registry
//     that the instrumented packages (partition, reuse, experiment,
//     cachesim, workload) feed; Snapshot() freezes it for export.
//   - Manifest: the durable record of one run — config, version,
//     per-stage wall/CPU time, counters, histogram summaries — written
//     atomically so a crash never leaves a torn manifest.
//   - Span (span.go): the one span model. Start opens a span and
//     StartRequest a served request's root; End measures once and feeds
//     every sink that applies — the tracer, the request's flight record,
//     and the manifest's stages.
//   - Tracer (tracer.go): hierarchical trace events — fine-grained
//     parent/child spans with goroutine lanes, exported as Chrome
//     trace_event JSON (-trace-events) for Perfetto. EnableTracer
//     installs the process-global tracer the same way Enable installs
//     the registry.
package obs

import "sync/atomic"

// global is the process-wide registry consulted by the instrumented
// pipeline packages. It is nil until a command calls Enable, which is
// what keeps library use and tests untouched: every method on a nil
// *Registry (and on the nil metric handles it returns) is a no-op.
var global atomic.Pointer[Registry]

// Enable installs r as the process-global registry. Enable(nil)
// disables instrumentation again. Safe for concurrent use, though the
// intended pattern is a single Enable at command startup.
func Enable(r *Registry) { global.Store(r) }

// Enabled returns the process-global registry, or nil when
// instrumentation is disabled. Callers chain directly off the result —
// obs.Enabled().Counter("x").Add(n) — because every step is nil-safe.
func Enabled() *Registry { return global.Load() }
