package service

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"partitionshare/internal/faultinject"
	"partitionshare/internal/mrc"
	"partitionshare/internal/partition"
)

// testConfig is a small-geometry config whose solves run in
// microseconds, so load and churn tests stay fast.
func testConfig() Config {
	return Config{
		Units:           64,
		BlocksPerUnit:   4,
		MaxInflight:     8,
		QueueDepth:      32,
		DefaultDeadline: 2 * time.Second,
		ReoptDeadline:   2 * time.Second,
		RetryMax:        3,
		RetryBase:       time.Millisecond,
		Seed:            1,
	}
}

func newTestService(t *testing.T, cfg Config) *Service {
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
	return svc
}

// waitForEpoch polls until the published plan covers exactly the wanted
// tenants and is not degraded.
func waitForEpoch(t *testing.T, svc *Service, want []string) Plan {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if p, ok := svc.CurrentPlan(); ok && !p.Degraded && len(p.Tenants) == len(want) {
			match := true
			for i := range want {
				if p.Tenants[i] != want[i] {
					match = false
					break
				}
			}
			if match {
				return p
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("no fresh plan for %v", want)
	return Plan{}
}

// assertPlanBitExact requires the served plan to match a from-scratch
// ReferenceOptimize of the same group bit for bit.
func assertPlanBitExact(t *testing.T, svc *Service, p Plan) {
	t.Helper()
	curves := make([]mrc.Curve, len(p.Tenants))
	for i, n := range p.Tenants {
		c, err := svc.CurveFor(n, p.Units)
		if err != nil {
			t.Fatal(err)
		}
		curves[i] = c
	}
	want, err := partition.ReferenceOptimize(partition.Problem{Curves: curves, Units: p.Units})
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(p.Objective) != math.Float64bits(want.Objective) {
		t.Fatalf("objective %v vs reference %v", p.Objective, want.Objective)
	}
	for i := range p.Alloc {
		if p.Alloc[i] != want.Alloc[i] {
			t.Fatalf("alloc %v vs reference %v", p.Alloc, want.Alloc)
		}
	}
	for i := range p.MissRatios {
		if math.Float64bits(p.MissRatios[i]) != math.Float64bits(want.MissRatios[i]) {
			t.Fatalf("miss ratio %d: %v vs %v", i, p.MissRatios[i], want.MissRatios[i])
		}
	}
}

// TestPlanForBitExact: the ad-hoc request path serves the reference
// optimum for arbitrary co-run subsets and geometries.
func TestPlanForBitExact(t *testing.T) {
	svc := newTestService(t, testConfig())
	for i := uint64(1); i <= 4; i++ {
		if err := svc.Register(nil, fmt.Sprintf("t%d", i), testProfile(t, i)); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		names []string
		units int
	}{
		{[]string{"t1", "t2"}, 0},
		{[]string{"t3", "t1", "t4"}, 0},
		{[]string{"t1", "t2", "t3", "t4"}, 48},
		{[]string{"t2"}, 16},
	} {
		p, err := svc.PlanFor(context.Background(), tc.names, tc.units)
		if err != nil {
			t.Fatalf("PlanFor(%v): %v", tc.names, err)
		}
		assertPlanBitExact(t, svc, p)
	}
	if _, err := svc.PlanFor(context.Background(), []string{"ghost"}, 0); !errors.Is(err, ErrTenantNotFound) {
		t.Fatalf("unknown tenant = %v, want ErrTenantNotFound", err)
	}
	if _, err := svc.PlanFor(context.Background(), nil, 0); err == nil {
		t.Fatal("empty group accepted")
	}
}

// TestEpochChurnBitExact drives tenant churn through the background
// loop: every published epoch plan, including after a mid-list
// departure, must be bit-exact vs the reference, and neither the served
// plan JSON nor the history records carry the removed warm_* fields.
func TestEpochChurnBitExact(t *testing.T) {
	srv, svc := startTestServer(t, testConfig())
	base := "http://" + srv.Addr()
	assertNoWarmKeys := func(path string) {
		t.Helper()
		status, body := doReq(t, "GET", base+path, nil)
		if status != http.StatusOK || strings.Contains(string(body), `"warm_`) {
			t.Fatalf("GET %s = %d %s", path, status, body)
		}
	}

	var group []string
	for i := uint64(1); i <= 4; i++ {
		name := fmt.Sprintf("t%d", i)
		if err := svc.Register(nil, name, testProfile(t, i)); err != nil {
			t.Fatal(err)
		}
		group = append(group, name)
		assertPlanBitExact(t, svc, waitForEpoch(t, svc, group))
		assertNoWarmKeys("/v1/plan")
	}

	// Departure mid-list: exactness holds for the shrunken group.
	if err := svc.Unregister(nil, "t2"); err != nil {
		t.Fatal(err)
	}
	assertPlanBitExact(t, svc, waitForEpoch(t, svc, []string{"t1", "t3", "t4"}))
	assertNoWarmKeys("/v1/plan")
	assertNoWarmKeys("/v1/plan/history")

	// Last tenant gone: the plan clears.
	for _, n := range []string{"t1", "t3", "t4"} {
		if err := svc.Unregister(nil, n); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, ok := svc.CurrentPlan(); !ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("plan not cleared after last tenant left")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestReoptTransientFailureRetries: a failure window shorter than the
// retry budget heals without ever entering degraded mode.
func TestReoptTransientFailureRetries(t *testing.T) {
	svc := newTestService(t, testConfig())
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	svc.Start(ctx)

	plan := faultinject.NewPlan()
	plan.Set(FaultReopt, faultinject.Rule{Count: 2})
	faultinject.Enable(plan)
	defer faultinject.Enable(nil)

	if err := svc.Register(nil, "t1", testProfile(t, 1)); err != nil {
		t.Fatal(err)
	}
	p := waitForEpoch(t, svc, []string{"t1"})
	assertPlanBitExact(t, svc, p)
	if got := plan.Hits(FaultReopt); got < 3 {
		t.Fatalf("reopt attempted %d times, want >= 3 (2 failures + success)", got)
	}
	if svc.Degraded() {
		t.Fatal("transient failure left service degraded")
	}
}

// TestReoptPersistentFailureDegrades: when every retry fails, the last
// good plan keeps being served, flagged degraded, still bit-exact for
// its (stale) group; recovery clears the flag.
func TestReoptPersistentFailureDegrades(t *testing.T) {
	svc := newTestService(t, testConfig())
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	svc.Start(ctx)

	if err := svc.Register(nil, "t1", testProfile(t, 1)); err != nil {
		t.Fatal(err)
	}
	waitForEpoch(t, svc, []string{"t1"})

	// Now every re-optimization fails: churn leaves the old plan serving.
	plan := faultinject.NewPlan()
	plan.Set(FaultReopt, faultinject.Rule{}) // fire forever
	faultinject.Enable(plan)
	if err := svc.Register(nil, "t2", testProfile(t, 2)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for !svc.Degraded() {
		if time.Now().After(deadline) {
			t.Fatal("service never entered degraded mode")
		}
		time.Sleep(2 * time.Millisecond)
	}
	p, ok := svc.CurrentPlan()
	if !ok {
		t.Fatal("degraded mode dropped the last good plan")
	}
	if !p.Degraded {
		t.Fatal("stale plan not flagged degraded")
	}
	if len(p.Tenants) != 1 || p.Tenants[0] != "t1" {
		t.Fatalf("degraded plan covers %v, want the last good group [t1]", p.Tenants)
	}
	assertPlanBitExact(t, svc, p) // stale but still the exact optimum for its group

	// Heal the fault and trigger churn: the service recovers.
	faultinject.Enable(nil)
	svc.signalChurn()
	p = waitForEpoch(t, svc, []string{"t1", "t2"})
	assertPlanBitExact(t, svc, p)
	if svc.Degraded() {
		t.Fatal("degraded flag survived recovery")
	}
}

// TestPlanForDeadline: an injected slow solve pushes the request past
// its deadline; the error is context.DeadlineExceeded via errors.Is.
func TestPlanForDeadline(t *testing.T) {
	svc := newTestService(t, testConfig())
	if err := svc.Register(nil, "t1", testProfile(t, 1)); err != nil {
		t.Fatal(err)
	}
	plan := faultinject.NewPlan()
	plan.Set(FaultSolve, faultinject.Rule{Err: faultinject.Benign, Delay: 50 * time.Millisecond})
	faultinject.Enable(plan)
	defer faultinject.Enable(nil)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	_, err := svc.PlanFor(ctx, []string{"t1"}, 0)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("slow solve = %v, want DeadlineExceeded", err)
	}
}

// TestOverloadSheds: with one slot and no queue, a second concurrent
// request sheds immediately with the typed sentinel.
func TestOverloadSheds(t *testing.T) {
	cfg := testConfig()
	cfg.MaxInflight = 1
	cfg.QueueDepth = 0
	svc := newTestService(t, cfg)
	if err := svc.Register(nil, "t1", testProfile(t, 1)); err != nil {
		t.Fatal(err)
	}
	// Pin the only slot with an injected slow solve.
	plan := faultinject.NewPlan()
	plan.Set(FaultSolve, faultinject.Rule{Err: faultinject.Benign, Delay: 300 * time.Millisecond})
	faultinject.Enable(plan)
	defer faultinject.Enable(nil)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := svc.PlanFor(context.Background(), []string{"t1"}, 0); err != nil {
			t.Errorf("pinned request failed: %v", err)
		}
	}()
	deadline := time.Now().Add(2 * time.Second)
	for svc.limiter.Inflight() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first request never acquired the slot")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := svc.PlanFor(context.Background(), []string{"t1"}, 0); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("overflow request = %v, want ErrOverloaded", err)
	}
	wg.Wait()
}

// TestQueuedDeadline: with a queue, a waiter whose deadline expires
// while queued gets a context error, not a hang.
func TestQueuedDeadline(t *testing.T) {
	cfg := testConfig()
	cfg.MaxInflight = 1
	cfg.QueueDepth = 4
	svc := newTestService(t, cfg)
	if err := svc.Register(nil, "t1", testProfile(t, 1)); err != nil {
		t.Fatal(err)
	}
	plan := faultinject.NewPlan()
	plan.Set(FaultSolve, faultinject.Rule{Err: faultinject.Benign, Delay: 300 * time.Millisecond})
	faultinject.Enable(plan)
	defer faultinject.Enable(nil)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		svc.PlanFor(context.Background(), []string{"t1"}, 0)
	}()
	deadline := time.Now().Add(2 * time.Second)
	for svc.limiter.Inflight() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first request never acquired the slot")
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := svc.PlanFor(ctx, []string{"t1"}, 0); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queued-past-deadline = %v, want DeadlineExceeded", err)
	}
	wg.Wait()
}

// TestDrainingRefusesTyped: drain mode refuses new work with the typed
// sentinel on every entry point.
func TestDrainingRefusesTyped(t *testing.T) {
	svc := newTestService(t, testConfig())
	if err := svc.Register(nil, "t1", testProfile(t, 1)); err != nil {
		t.Fatal(err)
	}
	svc.SetDraining(true)
	if _, err := svc.PlanFor(context.Background(), []string{"t1"}, 0); !errors.Is(err, ErrDraining) {
		t.Fatalf("PlanFor while draining = %v, want ErrDraining", err)
	}
	if err := svc.Register(nil, "t2", testProfile(t, 2)); !errors.Is(err, ErrDraining) {
		t.Fatalf("Register while draining = %v, want ErrDraining", err)
	}
	if err := svc.Unregister(nil, "t1"); !errors.Is(err, ErrDraining) {
		t.Fatalf("Unregister while draining = %v, want ErrDraining", err)
	}
	svc.SetDraining(false)
	if _, err := svc.PlanFor(context.Background(), []string{"t1"}, 0); err != nil {
		t.Fatalf("PlanFor after drain lifted: %v", err)
	}
}

// TestServiceRestartRecoversTenants: a new Service over a reopened
// store re-derives every curve and serves identical plans.
func TestServiceRestartRecoversTenants(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := New(testConfig(), store)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 3; i++ {
		if err := svc.Register(nil, fmt.Sprintf("t%d", i), testProfile(t, i)); err != nil {
			t.Fatal(err)
		}
	}
	before, err := svc.PlanFor(context.Background(), []string{"t1", "t2", "t3"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	store.Close()

	store2, err := OpenStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	svc2, err := New(testConfig(), store2)
	if err != nil {
		t.Fatal(err)
	}
	after, err := svc2.PlanFor(context.Background(), []string{"t1", "t2", "t3"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(before.Objective) != math.Float64bits(after.Objective) {
		t.Fatalf("restart changed objective: %v vs %v", before.Objective, after.Objective)
	}
	for i := range before.Alloc {
		if before.Alloc[i] != after.Alloc[i] {
			t.Fatalf("restart changed allocation: %v vs %v", before.Alloc, after.Alloc)
		}
	}
}
