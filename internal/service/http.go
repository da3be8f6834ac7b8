package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"partitionshare/internal/obs"
	"partitionshare/internal/profileio"
)

// maxProfileBody bounds a profile upload (16 MiB) so a misbehaving
// client cannot balloon the daemon's memory.
const maxProfileBody = 16 << 20

// apiError is the JSON error envelope every non-2xx response carries.
// TraceID repeats the response traceparent's trace ID so a logged
// envelope correlates with the trace and the flight recorder without
// the headers.
type apiError struct {
	Error   string `json:"error"`  // stable machine-readable code
	Detail  string `json:"detail"` // human-readable cause
	TraceID string `json:"trace_id,omitempty"`
}

// errorCode maps service sentinels to (HTTP status, stable code).
func errorCode(err error) (int, string) {
	switch {
	case errors.Is(err, ErrOverloaded):
		return http.StatusTooManyRequests, "overloaded"
	case errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable, "draining"
	case errors.Is(err, ErrNoPlan):
		return http.StatusServiceUnavailable, "no_plan"
	case errors.Is(err, ErrTenantNotFound):
		return http.StatusNotFound, "not_found"
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, "deadline"
	case errors.Is(err, context.Canceled):
		return 499, "canceled" // client went away; nginx's convention
	default:
		return http.StatusBadRequest, "bad_request"
	}
}

// writeJSON writes v as compact JSON, one value per response followed
// by a newline.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v) // the status line is already out; nothing to do on error
}

// writeError renders err as the typed envelope, stamped with the
// request's trace ID, and records the envelope code on the request's
// root span for the flight recorder.
func writeError(w http.ResponseWriter, r *http.Request, err error) {
	status, code := errorCode(err)
	obs.Enabled().Counter(mHTTPErrorsPrefix + code).Add(1)
	obs.RequestFrom(r.Context()).SetCode(code)
	writeJSON(w, status, apiError{Error: code, Detail: err.Error(), TraceID: obs.TraceIDFrom(r.Context())})
}

// Handler builds the service's HTTP API:
//
//	PUT    /v1/tenants/{name}       register/replace (body: hotlprof profile)
//	DELETE /v1/tenants/{name}       unregister
//	GET    /v1/tenants              list tenants
//	GET    /v1/tenants/{name}/mrc   miss-ratio curve (?units=N)
//	POST   /v1/plan                 ad-hoc group plan (JSON body)
//	GET    /v1/plan                 current background epoch plan
//	GET    /v1/plan/history         epoch audit records (?since_epoch=N)
//	GET    /v1/plan/changes         change feed: long-poll (?wait_ms=N) or SSE (?stream=sse)
//	GET    /healthz                 liveness (always 200 while the process runs)
//	GET    /readyz                  readiness (503 while draining)
//	GET    /metrics                 registry, Prometheus text exposition
//	GET    /metrics/prom            the same body as /metrics
//	GET    /debug/requests          request flight recorder
//	GET    /debug/epochs            human-readable epoch timeline
//
// Every handler runs under a request deadline (?deadline_ms or the
// configured default), propagated through admission into the DP solve,
// and under the telemetry wrap (telemetry.go): traceparent in/out,
// request-scoped spans, RED metrics, flight recording.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("PUT /v1/tenants/{name}", s.wrap("put_tenant", s.handlePutTenant))
	mux.HandleFunc("DELETE /v1/tenants/{name}", s.wrap("delete_tenant", s.handleDeleteTenant))
	mux.HandleFunc("GET /v1/tenants", s.wrap("list_tenants", s.handleListTenants))
	mux.HandleFunc("GET /v1/tenants/{name}/mrc", s.wrap("mrc", s.handleMRC))
	mux.HandleFunc("POST /v1/plan", s.wrap("plan_post", s.handlePlanPost))
	mux.HandleFunc("GET /v1/plan", s.wrap("plan_get", s.handlePlanGet))
	mux.HandleFunc("GET /v1/plan/history", s.wrap("plan_history", s.handlePlanHistory))
	// The change feed runs under the stream wrap: full telemetry, no
	// per-request deadline (the handler bounds its own waits).
	mux.HandleFunc("GET /v1/plan/changes", s.wrapStream("plan_changes", s.handlePlanChanges))
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if s.draining.Load() {
			writeError(w, r, fmt.Errorf("not ready: %w", ErrDraining))
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	})
	// Observability endpoints ride the API listener too (outside the
	// telemetry wrap: a scrape is not a tenant request), so a deployment
	// without -debug-addr still has scrape and triage surfaces.
	metrics := func(w http.ResponseWriter, _ *http.Request) { obs.ServePrometheus(w) }
	mux.HandleFunc("GET /metrics", metrics)
	mux.HandleFunc("GET /metrics/prom", metrics)
	mux.HandleFunc("GET /debug/requests", func(w http.ResponseWriter, _ *http.Request) {
		obs.ServeFlightRecorder(w)
	})
	mux.HandleFunc("GET /debug/epochs", func(w http.ResponseWriter, _ *http.Request) {
		s.serveEpochsDebug(w)
	})
	return mux
}

// requestContext derives the per-request deadline: ?deadline_ms if the
// client set one (bounded above by the service default so a client
// cannot pin a solve slot arbitrarily long), the default otherwise.
func (s *Service) requestContext(r *http.Request) (context.Context, context.CancelFunc, error) {
	d, err := millisParam(r, "deadline_ms", 1, s.cfg.DefaultDeadline)
	if err != nil {
		return nil, nil, err
	}
	ctx, cancel := context.WithTimeout(r.Context(), d)
	return ctx, cancel, nil
}

// millisParam reads query parameter name as a count of milliseconds: a
// value below least is a client error, one above limit is capped at
// limit, and an absent one means limit. The cap is applied in
// milliseconds, before the value becomes a Duration, so a huge value
// cannot overflow into a negative one.
func millisParam(r *http.Request, name string, least int64, limit time.Duration) (time.Duration, error) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		return limit, nil
	}
	ms, err := strconv.ParseInt(raw, 10, 64)
	if err != nil || ms < least {
		return 0, fmt.Errorf("service: invalid %s %q", name, raw)
	}
	if ms > limit.Milliseconds() {
		return limit, nil
	}
	return time.Duration(ms) * time.Millisecond, nil
}

func (s *Service) handlePutTenant(w http.ResponseWriter, r *http.Request) error {
	name := r.PathValue("name")
	obs.RequestFrom(r.Context()).SetTenant(name)
	p, err := profileio.Read(http.MaxBytesReader(w, r.Body, maxProfileBody))
	if err != nil {
		return fmt.Errorf("service: profile body: %w", err)
	}
	if err := s.Register(r.Context(), name, p); err != nil {
		return err
	}
	writeJSON(w, http.StatusOK, map[string]any{"tenant": name, "seq": s.store.Seq()})
	return nil
}

func (s *Service) handleDeleteTenant(w http.ResponseWriter, r *http.Request) error {
	name := r.PathValue("name")
	obs.RequestFrom(r.Context()).SetTenant(name)
	if err := s.Unregister(r.Context(), name); err != nil {
		return err
	}
	writeJSON(w, http.StatusOK, map[string]any{"tenant": name, "seq": s.store.Seq()})
	return nil
}

func (s *Service) handleListTenants(w http.ResponseWriter, r *http.Request) error {
	writeJSON(w, http.StatusOK, map[string]any{
		"tenants":  s.Tenants(),
		"seq":      s.store.Seq(),
		"degraded": s.Degraded(),
	})
	return nil
}

func (s *Service) handleMRC(w http.ResponseWriter, r *http.Request) error {
	units := 0
	if raw := r.URL.Query().Get("units"); raw != "" {
		u, err := strconv.Atoi(raw)
		if err != nil || u <= 0 {
			return fmt.Errorf("service: invalid units %q", raw)
		}
		units = u
	}
	obs.RequestFrom(r.Context()).SetTenant(r.PathValue("name"))
	c, err := s.CurveFor(r.PathValue("name"), units)
	if err != nil {
		return err
	}
	writeJSON(w, http.StatusOK, c)
	return nil
}

// planRequest is POST /v1/plan's body: the co-run group and optionally
// a non-default cache size.
type planRequest struct {
	Tenants []string `json:"tenants"`
	Units   int      `json:"units,omitempty"`
}

func (s *Service) handlePlanPost(w http.ResponseWriter, r *http.Request) error {
	var req planRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		return fmt.Errorf("service: plan request body: %w", err)
	}
	if len(req.Tenants) > 0 {
		// Attribute group plans to their first tenant — a single label
		// keeps the per-tenant family's cardinality linear in tenants,
		// not in observed groups.
		obs.RequestFrom(r.Context()).SetTenant(req.Tenants[0])
	}
	plan, err := s.PlanFor(r.Context(), req.Tenants, req.Units)
	if err != nil {
		return err
	}
	writeJSON(w, http.StatusOK, plan)
	return nil
}

func (s *Service) handlePlanGet(w http.ResponseWriter, r *http.Request) error {
	plan, ok := s.CurrentPlan()
	if !ok {
		return ErrNoPlan
	}
	obs.RequestFrom(r.Context()).SetEpoch(plan.Epoch)
	writeJSON(w, http.StatusOK, plan)
	return nil
}
