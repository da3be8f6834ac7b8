package service

import (
	"fmt"
	"net/http"

	"partitionshare/internal/obs"
)

// This file is the request-telemetry middleware: the wrap envelope every
// API handler runs under. It ingests (or mints) a W3C traceparent and
// opens the request's one root span (obs.StartRequest), which carries
// the trace identity and the in-progress flight record through the
// context. The instrumented layers (admission, curves, solve, store)
// are plain obs.Start spans parented under it; each one's End feeds the
// trace timeline and the record's stage list at once. Once the response
// is out, the root's End files the flight record, and the same record
// feeds the RED rollups, the per-tenant bounded child set, and the
// latency histogram. The same trace ID travels in the response
// traceparent header, the error envelope's trace_id field, and the
// flight-recorder record, so one identifier correlates all three.

// TraceparentHeader is the W3C trace-context header the service reads
// from requests and echoes on every response.
const TraceparentHeader = "traceparent"

// Admission outcomes recorded in flight-recorder entries.
const (
	outcomeAdmitted        = "admitted"
	outcomeQueued          = "queued"
	outcomeShed            = "shed"
	outcomeDeadlineInQueue = "deadline_in_queue"
)

// statusWriter observes the status code a handler writes so the
// telemetry defer can attribute the request after the fact. Handlers
// still set status exclusively through the envelope writers; this
// wrapper only watches.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (sw *statusWriter) WriteHeader(code int) {
	if sw.status == 0 {
		sw.status = code
	}
	//vetkit:ignore(httpenvelope): transparent forwarder — the envelope writers run on top of this wrapper
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(b []byte) (int, error) {
	if sw.status == 0 {
		sw.status = http.StatusOK
	}
	return sw.ResponseWriter.Write(b)
}

// Unwrap lets http.ResponseController reach the underlying writer, so
// the SSE stream handler can flush events through the wrapper.
func (sw *statusWriter) Unwrap() http.ResponseWriter { return sw.ResponseWriter }

// statusClass buckets an HTTP status for the by-class RED counters.
func statusClass(status int) string {
	switch {
	case status < 300:
		return "2xx"
	case status < 400:
		return "3xx"
	case status < 500:
		return "4xx"
	default:
		return "5xx"
	}
}

// wrap applies the common robustness-and-telemetry envelope: trace
// ingest, drain refusal, request deadline, per-route and per-tenant
// metrics, flight recording, and panic containment (a handler bug
// becomes a 500, never a daemon crash).
func (s *Service) wrap(route string, fn func(http.ResponseWriter, *http.Request) error) http.HandlerFunc {
	return s.wrapWith(route, fn, true)
}

// wrapStream is the wrap variant for the change-feed endpoints: the
// same telemetry envelope, but without the per-request solve deadline —
// a long-poll or SSE stream legitimately outlives it; the handlers
// bound their own waits (?wait_ms capped by the default deadline) and
// end on client disconnect or feed shutdown.
func (s *Service) wrapStream(route string, fn func(http.ResponseWriter, *http.Request) error) http.HandlerFunc {
	return s.wrapWith(route, fn, false)
}

func (s *Service) wrapWith(route string, fn func(http.ResponseWriter, *http.Request) error, applyDeadline bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		reg := obs.Enabled()
		reg.Counter(mHTTPRequestsPrefix + route).Add(1)

		// Trace ingest: adopt a well-formed caller trace ID (minting our
		// own span ID), replace anything malformed with a fresh identity,
		// and echo the chosen traceparent up front so even a shed or
		// panicking response carries it.
		tc, _ := obs.EnsureTraceContext(r.Header.Get(TraceparentHeader))
		w.Header().Set(TraceparentHeader, tc.Traceparent())
		ctx, root := obs.StartRequest(r.Context(), spanReq, "service", tc)
		root.SetRoute(r.Method, route)
		r = r.WithContext(ctx)
		sw := &statusWriter{ResponseWriter: w}

		defer func() {
			if p := recover(); p != nil {
				reg.Counter(mHTTPPanics).Add(1)
				obs.Logger().Error("handler panic", "route", route, "panic", fmt.Sprint(p))
				writeJSON(sw, http.StatusInternalServerError,
					apiError{Error: "internal", Detail: "handler panic", TraceID: tc.TraceIDString()})
			}
			status := sw.status
			if status == 0 {
				status = http.StatusOK // handler wrote nothing: implicit 200
			}
			root.SetStatus(status)
			root.End() // files the flight record
			s.recordRequest(reg, route, root.Record())
		}()
		if s.draining.Load() {
			writeError(sw, r, ErrDraining)
			return
		}
		if !applyDeadline {
			if err := fn(sw, r); err != nil {
				writeError(sw, r, err)
			}
			return
		}
		dctx, cancel, err := s.requestContext(r)
		if err != nil {
			writeError(sw, r, err)
			return
		}
		defer cancel()
		if err := fn(sw, r.WithContext(dctx)); err != nil {
			writeError(sw, r, err)
		}
	}
}

// recordRequest files one finished request into the metric sinks: RED
// rollups, the per-tenant child set, and the per-route latency
// histogram. The request root's End has already filed the same record
// into the flight recorder. Runs once per request, after the response
// is out.
func (s *Service) recordRequest(reg *obs.Registry, route string, rec obs.RequestRecord) {
	class := statusClass(rec.Status)
	reg.Counter(mRequests).Add(1)
	reg.Counter(mRequestsByClassPrefix + class).Add(1)
	switch rec.Status {
	case 499:
		reg.Counter(mRequestsCanceled).Add(1)
	case http.StatusGatewayTimeout:
		reg.Counter(mRequestsDeadline).Add(1)
	}
	reg.Histogram(mHTTPLatencyPrefix+route, obs.DurationBuckets()).Observe(rec.DurNS)

	if rec.Tenant != "" {
		cs := reg.ChildSet(mTenantPrefix, obs.DefaultChildSetCap)
		cs.Add(rec.Tenant, tenantRequestsPrefix+route, 1)
		if rec.Status >= 400 {
			cs.Add(rec.Tenant, tenantErrorsPrefix+class, 1)
		}
		cs.Observe(rec.Tenant, tenantLatencyPrefix+route, obs.DurationBuckets(), rec.DurNS)
	}
}
