package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"partitionshare/internal/atomicio"
	"partitionshare/internal/faultinject"
)

// testEpochRecord builds a small deterministic epoch record.
func testEpochRecord(epoch int64) EpochRecord {
	return EpochRecord{
		Provenance: PlanProvenance{
			Epoch:       epoch,
			Cause:       CauseChurn,
			InputDigest: fmt.Sprintf("%032x", epoch),
			SolverPath:  "exact",
			ComputeNS:   1000 * epoch,
			UnixNS:      epoch, // fixed, so canonical bytes are comparable
		},
		Diff: PlanDiff{
			FromEpoch:  epoch - 1,
			ToEpoch:    epoch,
			Deltas:     []TenantDelta{{Tenant: "a", FromUnits: 10, ToUnits: 12, DeltaUnits: 2}},
			UnitsMoved: 2,
		},
		Tenants: []string{"a"},
		Alloc:   []int{12},
		Units:   12,
	}
}

func TestAuditLogRoundTrip(t *testing.T) {
	dir := t.TempDir()
	a, err := OpenAuditLog(dir, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for e := int64(1); e <= 5; e++ {
		if err := a.Append(testEpochRecord(e)); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if a.LastEpoch() != 5 || len(a.History(-1)) != 5 {
		t.Fatalf("LastEpoch=%d, retained=%d, want 5/5", a.LastEpoch(), len(a.History(-1)))
	}
	want := canonical(t, a)
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenAuditLog(dir, 0, 0)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	if got := canonical(t, re); !bytes.Equal(got, want) {
		t.Fatalf("reopened audit log diverges:\n%s\nvs\n%s", got, want)
	}
	// History filters by epoch, oldest first.
	h := re.History(3)
	if len(h) != 2 || h[0].Provenance.Epoch != 4 || h[1].Provenance.Epoch != 5 {
		t.Fatalf("History(3) = %+v", h)
	}
	if n := len(re.History(-1)); n != 5 {
		t.Fatalf("History(-1) returned %d records, want 5", n)
	}
	if n := len(re.History(5)); n != 0 {
		t.Fatalf("History(5) returned %d records, want 0", n)
	}
}

// TestAuditLogRetention drives more epochs than the retain bound and
// checks the window slides: old records fall off, LastEpoch does not.
func TestAuditLogRetention(t *testing.T) {
	dir := t.TempDir()
	a, err := OpenAuditLog(dir, 4, 3) // small retain and compactEvery: both paths exercised
	if err != nil {
		t.Fatal(err)
	}
	for e := int64(1); e <= 10; e++ {
		if err := a.Append(testEpochRecord(e)); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(a.History(-1)); n != 4 || a.LastEpoch() != 10 {
		t.Fatalf("retained=%d LastEpoch=%d, want 4/10", n, a.LastEpoch())
	}
	h := a.History(-1)
	if h[0].Provenance.Epoch != 7 {
		t.Fatalf("oldest retained epoch = %d, want 7", h[0].Provenance.Epoch)
	}
	want := canonical(t, a)
	a.Close()
	re, err := OpenAuditLog(dir, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := canonical(t, re); !bytes.Equal(got, want) {
		t.Fatalf("retention window not durable:\n%s\nvs\n%s", got, want)
	}
}

// TestAuditLogInjectedAppendFailure proves a failed append is not
// applied: memory and disk both stay at the last acknowledged record,
// and the log keeps working afterwards.
func TestAuditLogInjectedAppendFailure(t *testing.T) {
	dir := t.TempDir()
	a, err := OpenAuditLog(dir, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Append(testEpochRecord(1)); err != nil {
		t.Fatal(err)
	}
	want := canonical(t, a)

	plan := faultinject.NewPlan()
	plan.Set(atomicio.FaultLogAppend, faultinject.Rule{Count: 1, TruncateAt: 5})
	faultinject.Enable(plan)
	err = a.Append(testEpochRecord(2))
	faultinject.Enable(nil)
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("Append under fault = %v, want injected error", err)
	}
	if got := canonical(t, a); !bytes.Equal(got, want) {
		t.Fatalf("failed append mutated in-memory state")
	}
	a.Close()
	re, err := OpenAuditLog(dir, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := canonical(t, re); !bytes.Equal(got, want) {
		t.Fatalf("failed append leaked to disk")
	}
	if err := re.Append(testEpochRecord(2)); err != nil {
		t.Fatalf("Append after recovery: %v", err)
	}
}

// TestPlanNeverAheadOfAudit holds every audit append for 100 ms and
// polls the published plan throughout: whenever CurrentPlan shows epoch
// N, the audit log already holds N, and once the group empties it holds
// the withdrawal's epoch too — /v1/plan never runs ahead of
// /v1/plan/history.
func TestPlanNeverAheadOfAudit(t *testing.T) {
	svc := newTestService(t, testConfig())
	plan := faultinject.NewPlan()
	plan.Set(FaultAuditAppend, faultinject.Rule{Err: faultinject.Benign, Delay: 100 * time.Millisecond})
	faultinject.Enable(plan)
	defer faultinject.Enable(nil)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	svc.Start(ctx)
	var seen int64
	// poll checks the invariant every millisecond until done holds.
	poll := func(what string, done func(p Plan, ok bool) bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			p, ok := svc.CurrentPlan()
			last := svc.Audit().LastEpoch()
			if ok {
				if last < p.Epoch {
					t.Fatalf("plan shows epoch %d, audit log only %d", p.Epoch, last)
				}
				seen = p.Epoch
			} else if seen > 0 && last <= seen {
				t.Fatalf("plan withdrawn after epoch %d, audit log only %d", seen, last)
			}
			if done(p, ok) {
				return
			}
			time.Sleep(time.Millisecond)
		}
		t.Fatalf("timed out waiting for %s", what)
	}
	tenants := func(want ...string) func(Plan, bool) bool {
		return func(p Plan, ok bool) bool { return ok && fmt.Sprint(p.Tenants) == fmt.Sprint(want) }
	}
	if err := svc.Register(nil, "a", testProfile(t, 1)); err != nil {
		t.Fatal(err)
	}
	poll("epoch [a]", tenants("a"))
	if err := svc.Register(nil, "b", testProfile(t, 2)); err != nil {
		t.Fatal(err)
	}
	poll("epoch [a b]", tenants("a", "b"))
	for _, name := range []string{"a", "b"} {
		if err := svc.Unregister(nil, name); err != nil {
			t.Fatal(err)
		}
	}
	poll("the plan's withdrawal", func(_ Plan, ok bool) bool { return !ok })
	if plan.Hits(FaultAuditAppend) < 3 {
		t.Fatalf("%d audit appends, want at least 3", plan.Hits(FaultAuditAppend))
	}
}

// TestAuditAppendFailureDoesNotFailEpoch proves the tolerance contract:
// a broken audit disk must not stop plans from publishing — the epoch
// lands, only the audit record is lost (and counted).
func TestAuditAppendFailureDoesNotFailEpoch(t *testing.T) {
	svc := newTestService(t, testConfig())
	plan := faultinject.NewPlan()
	plan.Set(FaultAuditAppend, faultinject.Rule{Count: 1})
	faultinject.Enable(plan)
	defer faultinject.Enable(nil)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	svc.Start(ctx)
	if err := svc.Register(nil, "a", testProfile(t, 1)); err != nil {
		t.Fatal(err)
	}
	p := waitForEpoch(t, svc, []string{"a"})
	if p.Epoch != 1 {
		t.Fatalf("epoch = %d, want 1 despite audit failure", p.Epoch)
	}
	if svc.Audit().LastEpoch() != 0 {
		t.Fatalf("audit recorded the epoch despite the injected failure")
	}
	// The next epoch audits normally.
	if err := svc.Register(nil, "b", testProfile(t, 2)); err != nil {
		t.Fatal(err)
	}
	waitForEpoch(t, svc, []string{"a", "b"})
	if svc.Audit().LastEpoch() != 2 {
		t.Fatalf("audit LastEpoch = %d after recovery, want 2", svc.Audit().LastEpoch())
	}
}
