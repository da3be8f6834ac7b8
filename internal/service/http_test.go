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
	"strings"
	"sync"
	"testing"
	"time"

	"partitionshare/internal/faultinject"
	"partitionshare/internal/profileio"
)

// startTestServer boots a full server on an ephemeral port.
func startTestServer(t *testing.T, cfg Config) (*Server, *Service) {
	t.Helper()
	store, err := OpenStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	svc, err := New(cfg, store)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	srv, err := StartServer(ctx, svc, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, svc
}

func doReq(t *testing.T, method, url string, body []byte) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

func profileBytes(t *testing.T, p profileio.Profile) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := profileio.Write(&buf, p); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func apiCode(t *testing.T, body []byte) string {
	t.Helper()
	var e apiError
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatalf("error envelope does not parse: %v: %s", err, body)
	}
	return e.Error
}

// TestHTTPEndToEnd exercises the whole API surface: registration,
// listing, MRC queries, ad-hoc plans (checked bit-exact against the
// reference), the background plan, deletion, and the typed error
// envelope for every failure class.
func TestHTTPEndToEnd(t *testing.T) {
	srv, svc := startTestServer(t, testConfig())
	base := "http://" + srv.Addr()

	// Empty daemon: no plan yet, typed 503.
	status, body := doReq(t, "GET", base+"/v1/plan", nil)
	if status != http.StatusServiceUnavailable || apiCode(t, body) != "no_plan" {
		t.Fatalf("GET /v1/plan on empty daemon = %d %s", status, body)
	}

	// Register two tenants via profile upload.
	for i := uint64(1); i <= 2; i++ {
		name := fmt.Sprintf("t%d", i)
		status, body := doReq(t, "PUT", base+"/v1/tenants/"+name, profileBytes(t, testProfile(t, i)))
		if status != http.StatusOK {
			t.Fatalf("PUT tenant %s = %d %s", name, status, body)
		}
	}
	status, body = doReq(t, "GET", base+"/v1/tenants", nil)
	if status != http.StatusOK || !strings.Contains(string(body), `"t1"`) {
		t.Fatalf("GET /v1/tenants = %d %s", status, body)
	}

	// MRC query at a custom geometry.
	status, body = doReq(t, "GET", base+"/v1/tenants/t1/mrc?units=16", nil)
	if status != http.StatusOK {
		t.Fatalf("GET mrc = %d %s", status, body)
	}
	var curve struct {
		MR []float64 `json:"MR"`
	}
	if err := json.Unmarshal(body, &curve); err != nil || len(curve.MR) != 17 {
		t.Fatalf("mrc response: err=%v len=%d body=%s", err, len(curve.MR), body)
	}

	// Ad-hoc plan, bit-exact vs the reference oracle.
	status, body = doReq(t, "POST", base+"/v1/plan", []byte(`{"tenants":["t1","t2"]}`))
	if status != http.StatusOK {
		t.Fatalf("POST /v1/plan = %d %s", status, body)
	}
	var plan Plan
	if err := json.Unmarshal(body, &plan); err != nil {
		t.Fatal(err)
	}
	assertPlanBitExact(t, svc, plan)

	// Background plan converges to the full group and is also exact.
	bg := waitForEpoch(t, svc, []string{"t1", "t2"})
	assertPlanBitExact(t, svc, bg)
	status, body = doReq(t, "GET", base+"/v1/plan", nil)
	if status != http.StatusOK {
		t.Fatalf("GET /v1/plan = %d %s", status, body)
	}
	var got Plan
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if got.Degraded {
		t.Fatalf("fresh background plan flagged degraded: %s", body)
	}
	if math.Float64bits(got.Objective) != math.Float64bits(bg.Objective) {
		t.Fatalf("served plan objective %v, want %v", got.Objective, bg.Objective)
	}

	// Typed failures: unknown tenant, bad body, bad deadline.
	status, body = doReq(t, "POST", base+"/v1/plan", []byte(`{"tenants":["ghost"]}`))
	if status != http.StatusNotFound || apiCode(t, body) != "not_found" {
		t.Fatalf("unknown tenant = %d %s", status, body)
	}
	status, body = doReq(t, "POST", base+"/v1/plan", []byte(`{nope`))
	if status != http.StatusBadRequest || apiCode(t, body) != "bad_request" {
		t.Fatalf("bad body = %d %s", status, body)
	}
	status, body = doReq(t, "POST", base+"/v1/plan?deadline_ms=frogs", []byte(`{"tenants":["t1"]}`))
	if status != http.StatusBadRequest {
		t.Fatalf("bad deadline = %d %s", status, body)
	}
	status, body = doReq(t, "GET", base+"/v1/tenants/ghost/mrc", nil)
	if status != http.StatusNotFound {
		t.Fatalf("mrc unknown tenant = %d %s", status, body)
	}

	// Health and readiness.
	if status, _ := doReq(t, "GET", base+"/healthz", nil); status != http.StatusOK {
		t.Fatalf("healthz = %d", status)
	}
	if status, _ := doReq(t, "GET", base+"/readyz", nil); status != http.StatusOK {
		t.Fatalf("readyz = %d", status)
	}

	// Deletion.
	status, body = doReq(t, "DELETE", base+"/v1/tenants/t2", nil)
	if status != http.StatusOK {
		t.Fatalf("DELETE = %d %s", status, body)
	}
	status, body = doReq(t, "DELETE", base+"/v1/tenants/t2", nil)
	if status != http.StatusNotFound || apiCode(t, body) != "not_found" {
		t.Fatalf("double DELETE = %d %s", status, body)
	}
}

// TestHTTPDeadlineTyped: an injected slow solve must surface as a typed
// 504, not a hung connection.
func TestHTTPDeadlineTyped(t *testing.T) {
	srv, _ := startTestServer(t, testConfig())
	base := "http://" + srv.Addr()
	doReq(t, "PUT", base+"/v1/tenants/t1", profileBytes(t, testProfile(t, 1)))

	plan := faultinject.NewPlan()
	plan.Set(FaultSolve, faultinject.Rule{Err: faultinject.Benign, Delay: 100 * time.Millisecond})
	faultinject.Enable(plan)
	defer faultinject.Enable(nil)

	status, body := doReq(t, "POST", base+"/v1/plan?deadline_ms=10", []byte(`{"tenants":["t1"]}`))
	if status != http.StatusGatewayTimeout || apiCode(t, body) != "deadline" {
		t.Fatalf("slow solve = %d %s, want 504 deadline", status, body)
	}
}

// TestHTTPMillisParamsCapped: ?deadline_ms and ?wait_ms are capped at
// the default deadline, including values whose nanosecond Duration
// would overflow int64, and a smaller value is taken as is.
func TestHTTPMillisParamsCapped(t *testing.T) {
	cfg := testConfig()
	cfg.DefaultDeadline = 300 * time.Millisecond
	svc := newTestService(t, cfg)
	effective := map[string]func(raw string) time.Duration{
		// deadline_ms: the time left on the derived request context.
		"deadline_ms": func(raw string) time.Duration {
			ctx, cancel, err := svc.requestContext(httptest.NewRequest("GET", "/v1/tenants?deadline_ms="+raw, nil))
			if err != nil {
				t.Fatal(err)
			}
			defer cancel()
			dl, _ := ctx.Deadline()
			return time.Until(dl)
		},
		// wait_ms: how long a long-poll with no epoch to report stays parked.
		"wait_ms": func(raw string) time.Duration {
			start := time.Now()
			rec := serveDirect(t, svc.Handler(), "GET", "/v1/plan/changes?wait_ms="+raw, "", nil)
			if rec.Code != http.StatusOK {
				t.Fatalf("wait_ms=%s: %d %s", raw, rec.Code, rec.Body.String())
			}
			return time.Since(start)
		},
	}
	for _, tc := range []struct {
		param, raw string
		want       time.Duration
	}{
		{"deadline_ms", "50", 50 * time.Millisecond},
		{"deadline_ms", "10000000000000", cfg.DefaultDeadline},
		{"deadline_ms", "9223372036854775807", cfg.DefaultDeadline},
		{"wait_ms", "50", 50 * time.Millisecond},
		{"wait_ms", "10000000000000", cfg.DefaultDeadline},
		{"wait_ms", "9223372036854775807", cfg.DefaultDeadline},
	} {
		got := effective[tc.param](tc.raw)
		// A deadline is read just after it is set, a wait just after it
		// ends; each may miss want by scheduling delay in one direction.
		lo, hi := tc.want-100*time.Millisecond, tc.want
		if tc.param == "wait_ms" {
			lo, hi = tc.want, tc.want+time.Second
		}
		if got < lo || got > hi {
			t.Errorf("%s=%s: effective %v, want %v", tc.param, tc.raw, got, tc.want)
		}
	}
}

// TestHTTPOverloadTyped: shed requests come back as structured 429s.
func TestHTTPOverloadTyped(t *testing.T) {
	cfg := testConfig()
	cfg.MaxInflight = 1
	cfg.QueueDepth = 0
	srv, svc := startTestServer(t, cfg)
	base := "http://" + srv.Addr()
	doReq(t, "PUT", base+"/v1/tenants/t1", profileBytes(t, testProfile(t, 1)))

	plan := faultinject.NewPlan()
	plan.Set(FaultSolve, faultinject.Rule{Err: faultinject.Benign, Delay: 300 * time.Millisecond})
	faultinject.Enable(plan)
	defer faultinject.Enable(nil)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		status, body := doReq(t, "POST", base+"/v1/plan", []byte(`{"tenants":["t1"]}`))
		if status != http.StatusOK {
			t.Errorf("pinned request = %d %s", status, body)
		}
	}()
	deadline := time.Now().Add(2 * time.Second)
	for svc.limiter.Inflight() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("pinned request never started solving")
		}
		time.Sleep(time.Millisecond)
	}
	status, body := doReq(t, "POST", base+"/v1/plan", []byte(`{"tenants":["t1"]}`))
	if status != http.StatusTooManyRequests || apiCode(t, body) != "overloaded" {
		t.Fatalf("overflow request = %d %s, want 429 overloaded", status, body)
	}
	wg.Wait()
}

// TestHTTPDrainZeroDropped: a drain initiated while a slow request is
// in flight must let it finish (200), refuse new work, and report a
// clean (zero-dropped) shutdown.
func TestHTTPDrainZeroDropped(t *testing.T) {
	srv, svc := startTestServer(t, testConfig())
	base := "http://" + srv.Addr()
	doReq(t, "PUT", base+"/v1/tenants/t1", profileBytes(t, testProfile(t, 1)))

	plan := faultinject.NewPlan()
	plan.Set(FaultSolve, faultinject.Rule{Err: faultinject.Benign, Delay: 200 * time.Millisecond})
	faultinject.Enable(plan)
	defer faultinject.Enable(nil)

	inflightDone := make(chan int, 1)
	go func() {
		status, _ := doReq(t, "POST", base+"/v1/plan", []byte(`{"tenants":["t1"]}`))
		inflightDone <- status
	}()
	deadline := time.Now().Add(2 * time.Second)
	for svc.limiter.Inflight() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("in-flight request never started")
		}
		time.Sleep(time.Millisecond)
	}

	drainDone := make(chan error, 1)
	go func() { drainDone <- srv.Drain(5 * time.Second) }()

	// While draining, readiness flips and new work is refused. The
	// listener may already be closed — a connection error is an
	// acceptable refusal too; what matters is no new work is admitted.
	for !svc.Draining() {
		time.Sleep(time.Millisecond)
	}
	if resp, err := http.Get(base + "/readyz"); err == nil {
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("readyz while draining = %d", resp.StatusCode)
		}
		resp.Body.Close()
	}

	if status := <-inflightDone; status != http.StatusOK {
		t.Fatalf("in-flight request dropped during drain: status %d", status)
	}
	if err := <-drainDone; err != nil {
		t.Fatalf("drain reported dropped requests: %v", err)
	}
}

// TestHTTPPlanSolverPathRecorded: served plans carry the solver path so
// operators can audit which ladder rung produced an allocation.
func TestHTTPPlanSolverPathRecorded(t *testing.T) {
	srv, _ := startTestServer(t, testConfig())
	base := "http://" + srv.Addr()
	doReq(t, "PUT", base+"/v1/tenants/t1", profileBytes(t, testProfile(t, 1)))
	_, body := doReq(t, "POST", base+"/v1/plan", []byte(`{"tenants":["t1"]}`))
	var plan Plan
	if err := json.Unmarshal(body, &plan); err != nil {
		t.Fatal(err)
	}
	switch plan.SolverPath {
	case "refine", "exact", "refine-fallback+exact":
	default:
		t.Fatalf("plan solver path %q is no ladder path: %s", plan.SolverPath, body)
	}
}
