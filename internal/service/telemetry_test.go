package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"partitionshare/internal/faultinject"
	"partitionshare/internal/obs"
)

// withTelemetry installs a fresh registry, tracer, and flight recorder
// for one test and restores the previous globals afterwards.
func withTelemetry(t *testing.T) (*obs.Registry, *obs.Tracer, *obs.FlightRecorder) {
	t.Helper()
	prevReg, prevTr, prevFr := obs.Enabled(), obs.ActiveTracer(), obs.ActiveFlightRecorder()
	reg := obs.NewRegistry()
	tr := obs.NewTracer(0, nil)
	fr := obs.NewFlightRecorder(0)
	obs.Enable(reg)
	obs.EnableTracer(tr)
	obs.EnableFlightRecorder(fr)
	t.Cleanup(func() {
		obs.Enable(prevReg)
		obs.EnableTracer(prevTr)
		obs.EnableFlightRecorder(prevFr)
	})
	return reg, tr, fr
}

// serveDirect runs one request through the service handler without a
// network listener.
func serveDirect(t *testing.T, h http.Handler, method, target, traceparent string, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	var req *http.Request
	if body != nil {
		req = httptest.NewRequest(method, target, strings.NewReader(string(body)))
	} else {
		req = httptest.NewRequest(method, target, nil)
	}
	if traceparent != "" {
		req.Header.Set(TraceparentHeader, traceparent)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// The registry has one exposition: GET /metrics and GET /metrics/prom
// serve the same Prometheus text on the API listener and on the
// -debug-addr listener, and the retired debug routes /metrics/history
// and /debug/vars are gone.
func TestMetricsExpositionContract(t *testing.T) {
	withTelemetry(t)
	svc := newTestService(t, testConfig())
	if err := svc.Register(nil, "t1", testProfile(t, 1)); err != nil {
		t.Fatal(err)
	}
	api := httptest.NewServer(svc.Handler())
	defer api.Close()
	ds, err := obs.StartDebugServer(context.Background(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()

	tr := &http.Transport{DisableKeepAlives: true}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr, Timeout: 5 * time.Second}
	get := func(url string) (int, string, []byte) {
		t.Helper()
		resp, err := client.Get(url)
		if err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: read: %v", url, err)
		}
		return resp.StatusCode, resp.Header.Get("Content-Type"), body
	}

	var first []byte
	for _, base := range []string{api.URL, "http://" + ds.Addr()} {
		for _, path := range []string{"/metrics", "/metrics/prom"} {
			code, ct, body := get(base + path)
			if code != http.StatusOK || ct != obs.PromContentType {
				t.Errorf("%s%s: status %d, content type %q", base, path, code, ct)
			}
			if first == nil {
				first = body
				if !bytes.Contains(body, []byte("# TYPE ")) {
					t.Fatalf("%s%s is not a Prometheus exposition:\n%s", base, path, body)
				}
			} else if !bytes.Equal(body, first) {
				t.Errorf("%s%s body differs from the first scrape:\n%s\nwant:\n%s", base, path, body, first)
			}
		}
	}
	for _, path := range []string{"/metrics/history", "/debug/vars"} {
		if code, _, _ := get("http://" + ds.Addr() + path); code != http.StatusNotFound {
			t.Errorf("debug listener %s = %d, want 404", path, code)
		}
	}
}

// The tentpole acceptance path: a plan request carrying a W3C
// traceparent yields the same trace ID in the response header, the
// flight-recorder entry, and (on errors) the envelope — and the request
// renders as one span tree with the admission, curves, and solve stages
// parented under the root request span.
func TestHTTPTraceContextEndToEnd(t *testing.T) {
	_, tr, fr := withTelemetry(t)
	svc := newTestService(t, testConfig())
	if err := svc.Register(nil, "t1", testProfile(t, 1)); err != nil {
		t.Fatal(err)
	}
	h := svc.Handler()

	const inbound = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	const wantTrace = "4bf92f3577b34da6a3ce929d0e0e4736"
	rec := serveDirect(t, h, "POST", "/v1/plan", inbound, []byte(`{"tenants":["t1"]}`))
	if rec.Code != http.StatusOK {
		t.Fatalf("plan = %d %s", rec.Code, rec.Body.String())
	}

	// Response header: same trace ID, our own (new) span ID.
	echoed := rec.Header().Get(TraceparentHeader)
	tc, err := obs.ParseTraceparent(echoed)
	if err != nil {
		t.Fatalf("echoed traceparent %q malformed: %v", echoed, err)
	}
	if tc.TraceIDString() != wantTrace {
		t.Fatalf("echoed trace ID %s, want caller's %s", tc.TraceIDString(), wantTrace)
	}
	if strings.Contains(echoed, "00f067aa0ba902b7") {
		t.Fatal("response reused the caller's span ID")
	}

	// Span tree and flight record: a service.req root with the
	// admission, curves, and solve stages parented under it, and a
	// flight record carrying the same trace ID whose stages are exactly
	// those traced children — one span feeds both.
	got, stages := lastRequest(t, tr, fr)
	for _, want := range []string{spanReqAdmission, spanReqCurves, spanReqSolve} {
		if !slices.Contains(stages, want) {
			t.Errorf("stage %s not parented under %s (events: %+v)", want, spanReq, tr.Events())
		}
	}
	if n := len(tr.Events()); n < 4 {
		t.Fatalf("plan request produced %d spans, want >= 4", n)
	}
	if got.TraceID != wantTrace || got.Route != "plan_post" || got.Status != http.StatusOK ||
		got.Tenant != "t1" || got.Outcome != outcomeAdmitted {
		t.Fatalf("flight record = %+v, want trace %s, plan_post, 200, t1, %s", got, wantTrace, outcomeAdmitted)
	}

	// A PUT records its store append the same way.
	rec = serveDirect(t, h, "PUT", "/v1/tenants/t2", inbound, profileBytes(t, testProfile(t, 2)))
	if rec.Code != http.StatusOK {
		t.Fatalf("put = %d %s", rec.Code, rec.Body.String())
	}
	put, stages := lastRequest(t, tr, fr)
	if put.Method != "PUT" || put.Tenant != "t2" || put.TraceID != wantTrace || !slices.Contains(stages, spanReqStore) {
		t.Fatalf("put flight record = %+v, want PUT t2 with a %s stage", put, spanReqStore)
	}

	// Error path: header and envelope carry the same trace ID.
	rec = serveDirect(t, h, "POST", "/v1/plan", inbound, []byte(`{"tenants":["nope"]}`))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("unknown tenant = %d", rec.Code)
	}
	var env apiError
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatal(err)
	}
	hdr, err := obs.ParseTraceparent(rec.Header().Get(TraceparentHeader))
	if err != nil {
		t.Fatal(err)
	}
	if env.TraceID != hdr.TraceIDString() || env.TraceID != wantTrace {
		t.Fatalf("envelope trace_id %s vs header %s vs inbound %s: must all match",
			env.TraceID, hdr.TraceIDString(), wantTrace)
	}
	if env.Error != "not_found" {
		t.Fatalf("envelope code %s", env.Error)
	}
}

// Malformed traceparents are replaced with a fresh identity — never
// echoed back, never propagated into the trace tree.
func TestHTTPTraceparentMalformedReplaced(t *testing.T) {
	withTelemetry(t)
	svc := newTestService(t, testConfig())
	h := svc.Handler()
	cases := []string{
		"",
		"garbage",
		"00-zzzz2f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
		"00-00000000000000000000000000000000-0000000000000000-00",
		"00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01",
	}
	for _, in := range cases {
		rec := serveDirect(t, h, "GET", "/v1/tenants", in, nil)
		echoed := rec.Header().Get(TraceparentHeader)
		tc, err := obs.ParseTraceparent(echoed)
		if err != nil || !tc.Valid() {
			t.Fatalf("traceparent %q: echoed %q is not a valid fresh context (%v)", in, echoed, err)
		}
		if in != "" && strings.Contains(in, tc.TraceIDString()) {
			t.Fatalf("traceparent %q: malformed trace ID was propagated", in)
		}
	}
}

// A tenant-label flood over the HTTP surface stays capped: the live
// per-tenant series never exceed the set's cap, with the overflow
// folded into the "other" bucket and totals preserved.
func TestHTTPTenantFloodCapped(t *testing.T) {
	reg, _, _ := withTelemetry(t)
	reg.ChildSet(mTenantPrefix, 8) // the first creation's capacity wins
	svc := newTestService(t, testConfig())
	h := svc.Handler()

	const flood = 10_000
	for i := 0; i < flood; i++ {
		// Unknown tenants 404 — but each still carries a tenant label,
		// which is exactly the cardinality attack the cap defends against.
		rec := serveDirect(t, h, "GET", fmt.Sprintf("/v1/tenants/t%05d/mrc", i), "", nil)
		if rec.Code != http.StatusNotFound {
			t.Fatalf("request %d = %d", i, rec.Code)
		}
	}
	snap := reg.Snapshot()
	live := snap.Gauges[mTenantPrefix+"labels"]
	if live > 8 {
		t.Fatalf("live tenant series = %d, want <= 8", live)
	}
	var total int64
	for name, v := range snap.Counters {
		if strings.HasPrefix(name, mTenantPrefix) && strings.HasSuffix(name, ".requests.mrc") {
			total += v
		}
	}
	if total != flood {
		t.Fatalf("per-tenant request total = %d, want %d (overflow must absorb, not drop)", total, flood)
	}
	if snap.Counters[mTenantPrefix+"other.requests.mrc"] == 0 {
		t.Fatal("overflow bucket empty after flood")
	}
	if snap.Counters[mRequests] != flood {
		t.Fatalf("%s = %d, want %d", mRequests, snap.Counters[mRequests], flood)
	}
	if snap.Counters[mRequestsByClassPrefix+"4xx"] != flood {
		t.Fatalf("4xx class counter = %d, want %d", snap.Counters[mRequestsByClassPrefix+"4xx"], flood)
	}
}

// The 499/504 split: a request canceled by its own deadline counts as
// deadline (504), and the status-class rollup sees it as 5xx.
func TestHTTPDeadlineAndClassCounters(t *testing.T) {
	reg, _, fr := withTelemetry(t)
	srv, _ := startTestServer(t, testConfig())
	base := "http://" + srv.Addr()
	doReq(t, "PUT", base+"/v1/tenants/t1", profileBytes(t, testProfile(t, 1)))

	status, _ := doReq(t, "POST", base+"/v1/plan", []byte(`{"tenants":["t1"]}`))
	if status != http.StatusOK {
		t.Fatalf("warm-up plan = %d", status)
	}
	deadlineBefore := reg.Counter(mRequestsDeadline).Value()

	plan := faultinject.NewPlan()
	plan.Set(FaultSolve, faultinject.Rule{Err: faultinject.Benign, Delay: 100 * time.Millisecond})
	faultinject.Enable(plan)
	defer faultinject.Enable(nil)
	status, body := doReq(t, "POST", base+"/v1/plan?deadline_ms=10", []byte(`{"tenants":["t1"]}`))
	if status != http.StatusGatewayTimeout {
		t.Fatalf("slow solve = %d %s", status, body)
	}
	if got := reg.Counter(mRequestsDeadline).Value(); got != deadlineBefore+1 {
		t.Fatalf("%s = %d, want %d", mRequestsDeadline, got, deadlineBefore+1)
	}
	if reg.Counter(mRequestsByClassPrefix+"5xx").Value() == 0 {
		t.Fatal("5xx class counter not incremented by the 504")
	}
	if reg.Counter(mRequests).Value() < 3 {
		t.Fatalf("%s = %d, want >= 3", mRequests, reg.Counter(mRequests).Value())
	}

	// The failed request landed in the errored ring with its code.
	snap := fr.Snapshot()
	found := false
	for _, recd := range snap.Errored {
		if recd.Status == http.StatusGatewayTimeout && recd.Code == "deadline" {
			found = true
		}
	}
	if !found {
		t.Fatalf("504 not in the errored ring: %+v", snap.Errored)
	}
}

// Telemetry must be observation only: the same plan request served with
// tracing, metrics, and flight recording fully enabled and fully
// disabled returns byte-identical bodies.
func TestHTTPPlanBitExactTelemetryOnOff(t *testing.T) {
	run := func(t *testing.T, enable bool) []byte {
		if enable {
			withTelemetry(t)
		} else {
			prevReg, prevTr, prevFr := obs.Enabled(), obs.ActiveTracer(), obs.ActiveFlightRecorder()
			obs.Enable(nil)
			obs.EnableTracer(nil)
			obs.EnableFlightRecorder(nil)
			t.Cleanup(func() {
				obs.Enable(prevReg)
				obs.EnableTracer(prevTr)
				obs.EnableFlightRecorder(prevFr)
			})
		}
		svc := newTestService(t, testConfig())
		for i := uint64(1); i <= 3; i++ {
			if err := svc.Register(nil, fmt.Sprintf("t%d", i), testProfile(t, i)); err != nil {
				t.Fatal(err)
			}
		}
		rec := serveDirect(t, svc.Handler(), "POST", "/v1/plan", "", []byte(`{"tenants":["t1","t2","t3"]}`))
		if rec.Code != http.StatusOK {
			t.Fatalf("plan = %d %s", rec.Code, rec.Body.String())
		}
		return rec.Body.Bytes()
	}
	on := run(t, true)
	off := run(t, false)
	// Provenance carries inherently per-request fields (compute duration,
	// wall timestamp, trace identity); normalize those, then require the
	// rest of the two bodies — allocation, objective, and the
	// deterministic provenance (digest, solver path, cause) — to be
	// byte-identical.
	normalize := func(raw []byte) ([]byte, Plan) {
		var p Plan
		if err := json.Unmarshal(raw, &p); err != nil {
			t.Fatal(err)
		}
		if p.Provenance == nil {
			t.Fatalf("plan response missing provenance: %s", raw)
		}
		p.Provenance.ComputeNS = 0
		p.Provenance.UnixNS = 0
		p.Provenance.TraceID = ""
		b, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		return b, p
	}
	onNorm, p := normalize(on)
	offNorm, _ := normalize(off)
	if string(onNorm) != string(offNorm) {
		t.Fatalf("plan bodies differ with telemetry on vs off:\n%s\nvs\n%s", onNorm, offNorm)
	}
	if len(p.Alloc) != 3 || math.IsNaN(p.Objective) {
		t.Fatalf("implausible plan %+v", p)
	}
	if p.Provenance.Cause != CauseAdHoc || p.Provenance.InputDigest == "" {
		t.Fatalf("implausible provenance %+v", p.Provenance)
	}
}

// lastRequest returns the newest flight record and its stage names,
// after checking those names are exactly the names of the trace events
// parented directly under the newest service.req root.
func lastRequest(t *testing.T, tr *obs.Tracer, fr *obs.FlightRecorder) (obs.RequestRecord, []string) {
	t.Helper()
	events := tr.Events()
	var root obs.TraceEvent
	for _, ev := range events {
		if ev.Name == spanReq && ev.StartNS >= root.StartNS {
			root = ev
		}
	}
	recent := fr.Snapshot().Recent
	if root.ID == 0 || len(recent) == 0 {
		t.Fatalf("no %s root span (%d events) or no flight record", spanReq, len(events))
	}
	var traced, staged []string
	for _, ev := range events {
		if ev.Parent == root.ID {
			traced = append(traced, ev.Name)
		}
	}
	for _, st := range recent[0].Stages {
		staged = append(staged, st.Name)
	}
	if !slices.Equal(staged, traced) {
		t.Errorf("flight record stages %v, want the %s root's traced children %v", staged, spanReq, traced)
	}
	return recent[0], staged
}
