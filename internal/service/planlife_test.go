package service

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"partitionshare/internal/faultinject"
	"partitionshare/internal/mrc"
	"partitionshare/internal/obs"
)

// --- PlanDiff unit tests ----------------------------------------------

func TestComputePlanDiff(t *testing.T) {
	prev := &Plan{Epoch: 3, Tenants: []string{"a", "b", "c"}, Alloc: []int{10, 20, 34}}
	next := &Plan{Epoch: 4, Tenants: []string{"a", "c", "d"}, Alloc: []int{4, 40, 20}}
	d := ComputePlanDiff(prev, next)

	if d.FromEpoch != 3 || d.ToEpoch != 4 {
		t.Fatalf("epochs %d->%d, want 3->4", d.FromEpoch, d.ToEpoch)
	}
	// Moved units counts only one direction, so swaps are not doubled:
	// gains are d(+20) and c(+6); a loses 6 and b loses 20.
	if d.UnitsMoved != 26 {
		t.Fatalf("UnitsMoved = %d, want 26", d.UnitsMoved)
	}
	if len(d.Gained) != 1 || d.Gained[0] != "d" {
		t.Fatalf("Gained = %v, want [d]", d.Gained)
	}
	if len(d.Lost) != 1 || d.Lost[0] != "b" {
		t.Fatalf("Lost = %v, want [b]", d.Lost)
	}
	// Deltas rank by |delta| descending, ties by name.
	wantOrder := []struct {
		tenant string
		delta  int
	}{{"b", -20}, {"d", 20}, {"a", -6}, {"c", 6}}
	if len(d.Deltas) != len(wantOrder) {
		t.Fatalf("Deltas = %+v", d.Deltas)
	}
	for i, w := range wantOrder {
		got := d.Deltas[i]
		if got.Tenant != w.tenant || got.DeltaUnits != w.delta {
			t.Fatalf("delta[%d] = %+v, want %s %+d", i, got, w.tenant, w.delta)
		}
		if got.ToUnits-got.FromUnits != got.DeltaUnits {
			t.Fatalf("delta[%d] inconsistent: %+v", i, got)
		}
	}
}

func TestComputePlanDiffNilSides(t *testing.T) {
	p := &Plan{Epoch: 1, Tenants: []string{"a", "b"}, Alloc: []int{30, 34}}

	first := ComputePlanDiff(nil, p)
	if first.FromEpoch != -1 || first.ToEpoch != 1 {
		t.Fatalf("first epoch bounds %d->%d", first.FromEpoch, first.ToEpoch)
	}
	if len(first.Gained) != 2 || first.UnitsMoved != 64 {
		t.Fatalf("first diff = %+v", first)
	}

	last := ComputePlanDiff(p, nil)
	if len(last.Lost) != 2 || last.UnitsMoved != 0 {
		t.Fatalf("retirement diff = %+v (loss-only moves no units in)", last)
	}

	empty := ComputePlanDiff(nil, nil)
	if empty.UnitsMoved != 0 || len(empty.Deltas) != 0 {
		t.Fatalf("nil/nil diff = %+v", empty)
	}
}

// --- InputDigest unit tests -------------------------------------------

func TestInputDigestDeterministicAndSensitive(t *testing.T) {
	curve := func(seed float64) mrc.Curve {
		return mrc.Curve{MR: []float64{1, 0.5, seed}, Accesses: 1000, AccessRate: 10}
	}
	names := []string{"a", "b"}
	curves := []mrc.Curve{curve(0.25), curve(0.125)}

	base := InputDigest(names, curves, 64)
	if base == "" || base != InputDigest(names, curves, 64) {
		t.Fatalf("digest not deterministic: %q", base)
	}
	if got := InputDigest(names, curves, 32); got == base {
		t.Fatal("digest ignores the unit count")
	}
	if got := InputDigest([]string{"a", "c"}, curves, 64); got == base {
		t.Fatal("digest ignores tenant names")
	}
	perturbed := []mrc.Curve{curve(0.25), curve(0.1250001)}
	if got := InputDigest(names, perturbed, 64); got == base {
		t.Fatal("digest ignores curve values")
	}
	// Name/curve boundary shifts must not collide (length-prefixing).
	if InputDigest([]string{"ab"}, curves[:1], 64) == InputDigest([]string{"a"}, curves[:1], 64) {
		t.Fatal("digest is not boundary-safe on names")
	}
}

// TestInputDigestPinned pins the digest's definition on a tiny input:
// the first 16 bytes of SHA-256(units, n, d₁ … dₙ), where each dᵢ is
// SHA-256(len(name), name, len(MR), MR bits, Accesses, AccessRate),
// every count and float a little-endian uint64.
func TestInputDigestPinned(t *testing.T) {
	curves := []mrc.Curve{
		{MR: []float64{1, 0.5, 0.25}, Accesses: 1000, AccessRate: 10},
		{MR: []float64{1, 0.5, 0.125}, Accesses: 1000, AccessRate: 10},
	}
	if got, want := InputDigest([]string{"a", "b"}, curves, 64), "23c5fb07c492f7c9c60c9a140e1ae288"; got != want {
		t.Fatalf("InputDigest = %s, want %s", got, want)
	}
	if got, want := InputDigest(nil, nil, 64), "02c75b9703b2bba7438368af38658847"; got != want {
		t.Fatalf("empty-group InputDigest = %s, want %s", got, want)
	}
}

// wantDigest recomputes a plan's input digest from scratch with the
// exported InputDigest over the curves the service serves for its
// tenants at its geometry.
func wantDigest(t *testing.T, svc *Service, p Plan) string {
	t.Helper()
	curves := make([]mrc.Curve, len(p.Tenants))
	for i, n := range p.Tenants {
		c, err := svc.CurveFor(n, p.Units)
		if err != nil {
			t.Fatal(err)
		}
		curves[i] = c
	}
	return InputDigest(p.Tenants, curves, p.Units)
}

// TestCachedDigestMatchesInputDigest: the digest a served plan carries,
// built from tenant digests cached at registration (or computed on
// demand off the configured geometry), equals the exported InputDigest
// on every path that changes a tenant's cached input.
func TestCachedDigestMatchesInputDigest(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := New(testConfig(), store)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	svc.Start(ctx)
	var lastEpoch int64
	check := func(step string, group []string) string {
		t.Helper()
		adhoc, err := svc.PlanFor(context.Background(), group, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := adhoc.Provenance.InputDigest, wantDigest(t, svc, adhoc); got != want {
			t.Fatalf("%s: ad-hoc digest %s, InputDigest %s", step, got, want)
		}
		// A replacement keeps the group, so wait for a newer epoch too.
		epoch := waitForEpoch(t, svc, group)
		for deadline := time.Now().Add(5 * time.Second); epoch.Epoch <= lastEpoch; {
			if time.Now().After(deadline) {
				t.Fatalf("%s: no epoch after %d", step, lastEpoch)
			}
			time.Sleep(2 * time.Millisecond)
			epoch = waitForEpoch(t, svc, group)
		}
		lastEpoch = epoch.Epoch
		if got := epoch.Provenance.InputDigest; got != adhoc.Provenance.InputDigest {
			t.Fatalf("%s: epoch digest %s, ad-hoc %s", step, got, adhoc.Provenance.InputDigest)
		}
		off, err := svc.PlanFor(context.Background(), group, 48)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := off.Provenance.InputDigest, wantDigest(t, svc, off); got != want || got == adhoc.Provenance.InputDigest {
			t.Fatalf("%s: digest at 48 units %s, InputDigest %s (at 64: %s)", step, got, want, adhoc.Provenance.InputDigest)
		}
		return adhoc.Provenance.InputDigest
	}

	for i := uint64(1); i <= 3; i++ {
		if err := svc.Register(nil, fmt.Sprintf("t%d", i), testProfile(t, i)); err != nil {
			t.Fatal(err)
		}
	}
	registered := check("register", []string{"t1", "t2", "t3"})

	if err := svc.Register(nil, "t2", testProfile(t, 7)); err != nil {
		t.Fatal(err)
	}
	replaced := check("replace", []string{"t1", "t2", "t3"})
	if replaced == registered {
		t.Fatal("replacing a tenant's profile left the digest unchanged")
	}

	if err := svc.Unregister(nil, "t1"); err != nil {
		t.Fatal(err)
	}
	check("delete", []string{"t2", "t3"})
	if err := svc.Register(nil, "t1", testProfile(t, 1)); err != nil {
		t.Fatal(err)
	}
	reordered := check("re-register", []string{"t2", "t3", "t1"})

	cancel()
	<-svc.Stopped()
	svc.Close()
	store.Close()
	store, err = OpenStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	svc, err = New(testConfig(), store)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	svc.Start(ctx)
	// A reopened store lists tenants sorted, so the epoch group is
	// t1, t2, t3 again; the ad-hoc group keeps the pre-restart order.
	check("reopen", []string{"t1", "t2", "t3"})
	adhoc, err := svc.PlanFor(context.Background(), []string{"t2", "t3", "t1"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if adhoc.Provenance.InputDigest != reordered {
		t.Fatalf("reopen changed the digest: %s, before %s", adhoc.Provenance.InputDigest, reordered)
	}
}

// --- Provenance -------------------------------------------------------

// TestPlanProvenanceOnEveryPath: ad-hoc plans carry ad_hoc provenance
// with epoch -1; published epoch plans carry churn provenance with the
// real epoch, and the digest matches an identical ad-hoc recompute.
func TestPlanProvenanceOnEveryPath(t *testing.T) {
	svc := newTestService(t, testConfig())
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	svc.Start(ctx)

	if err := svc.Register(nil, "t1", testProfile(t, 1)); err != nil {
		t.Fatal(err)
	}
	adhoc, err := svc.PlanFor(context.Background(), []string{"t1"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	pv := adhoc.Provenance
	if pv == nil || pv.Cause != CauseAdHoc || pv.Epoch != -1 {
		t.Fatalf("ad-hoc provenance = %+v", pv)
	}
	if pv.InputDigest == "" || pv.SolverPath == "" || pv.ComputeNS <= 0 || pv.UnixNS == 0 {
		t.Fatalf("ad-hoc provenance incomplete: %+v", pv)
	}

	bg := waitForEpoch(t, svc, []string{"t1"})
	bpv := bg.Provenance
	if bpv == nil || bpv.Cause != CauseChurn || bpv.Epoch != bg.Epoch {
		t.Fatalf("epoch provenance = %+v", bpv)
	}
	// Same tenant set, same geometry: the input digests agree, tying the
	// served plan to the exact inputs that produced it.
	if bpv.InputDigest != pv.InputDigest {
		t.Fatalf("digest mismatch: epoch %q vs ad-hoc %q", bpv.InputDigest, pv.InputDigest)
	}
}

// TestEpochContinuityAcrossRestart: the epoch counter seeds from the
// audit log, so a restarted daemon continues the sequence instead of
// reissuing epoch 1 — /debug/requests and history stay unambiguous.
func TestEpochContinuityAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := New(testConfig(), store)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	svc.Start(ctx)
	if err := svc.Register(nil, "t1", testProfile(t, 1)); err != nil {
		t.Fatal(err)
	}
	p1 := waitForEpoch(t, svc, []string{"t1"})
	cancel()
	svc.Close()
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
	defer svc2.Close()
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	svc2.Start(ctx2)
	if err := svc2.Register(nil, "t2", testProfile(t, 2)); err != nil {
		t.Fatal(err)
	}
	p2 := waitForEpoch(t, svc2, []string{"t1", "t2"})
	if p2.Epoch <= p1.Epoch {
		t.Fatalf("epoch went backwards across restart: %d then %d", p1.Epoch, p2.Epoch)
	}
	if h := svc2.Audit().History(-1); h[len(h)-1].Provenance.Epoch != p2.Epoch {
		t.Fatalf("audit tail %d, want %d", h[len(h)-1].Provenance.Epoch, p2.Epoch)
	}
}

// --- HTTP: history, long-poll, SSE, debug -----------------------------

func planUnits(p Plan) map[string]int {
	m := make(map[string]int, len(p.Tenants))
	for i, n := range p.Tenants {
		m[n] = p.Alloc[i]
	}
	return m
}

// assertDiffMatchesPlans checks an epoch event's deltas against the two
// actually-served plans — the acceptance criterion: the feed reports
// exactly the difference a client would compute from its own polls.
func assertDiffMatchesPlans(t *testing.T, d PlanDiff, before, after Plan) {
	t.Helper()
	wantFrom, wantTo := planUnits(before), planUnits(after)
	seen := map[string]bool{}
	for _, td := range d.Deltas {
		seen[td.Tenant] = true
		if td.FromUnits != wantFrom[td.Tenant] || td.ToUnits != wantTo[td.Tenant] {
			t.Fatalf("delta for %s = %+v, served plans say %d -> %d",
				td.Tenant, td, wantFrom[td.Tenant], wantTo[td.Tenant])
		}
		if td.DeltaUnits != td.ToUnits-td.FromUnits {
			t.Fatalf("inconsistent delta: %+v", td)
		}
	}
	moved := 0
	for n, to := range wantTo {
		if delta := to - wantFrom[n]; delta != 0 {
			if !seen[n] {
				t.Fatalf("tenant %s moved %+d units but has no delta entry", n, delta)
			}
			if delta > 0 {
				moved += delta
			}
		}
	}
	if d.UnitsMoved != moved {
		t.Fatalf("UnitsMoved = %d, recomputed %d from the served plans", d.UnitsMoved, moved)
	}
}

// TestHTTPPlanChangesLongPoll is the end-to-end churn acceptance test:
// register -> plan -> long-poll -> register -> the poll returns an epoch
// event whose deltas match the difference of the two served plans.
func TestHTTPPlanChangesLongPoll(t *testing.T) {
	srv, svc := startTestServer(t, testConfig())
	base := "http://" + srv.Addr()

	doReq(t, "PUT", base+"/v1/tenants/t1", profileBytes(t, testProfile(t, 1)))
	waitForEpoch(t, svc, []string{"t1"})
	_, body := doReq(t, "GET", base+"/v1/plan", nil)
	var plan1 Plan
	if err := json.Unmarshal(body, &plan1); err != nil {
		t.Fatal(err)
	}

	// Long-poll from plan1's epoch, then churn. Subscribe-before-history
	// in the handler makes this race-free regardless of arrival order.
	pollDone := make(chan planHistoryResponse, 1)
	go func() {
		_, body := doReq(t, "GET",
			fmt.Sprintf("%s/v1/plan/changes?since_epoch=%d&wait_ms=1500", base, plan1.Epoch), nil)
		var resp planHistoryResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Errorf("long-poll body: %v: %s", err, body)
		}
		pollDone <- resp
	}()
	time.Sleep(10 * time.Millisecond) // let the poll park (not required for correctness)
	doReq(t, "PUT", base+"/v1/tenants/t2", profileBytes(t, testProfile(t, 2)))
	waitForEpoch(t, svc, []string{"t1", "t2"})
	_, body = doReq(t, "GET", base+"/v1/plan", nil)
	var plan2 Plan
	if err := json.Unmarshal(body, &plan2); err != nil {
		t.Fatal(err)
	}

	var resp planHistoryResponse
	select {
	case resp = <-pollDone:
	case <-time.After(5 * time.Second):
		t.Fatal("long-poll never returned")
	}
	if resp.Gap {
		t.Fatalf("gap on a fully retained window: %+v", resp)
	}
	if len(resp.Events) == 0 {
		t.Fatal("long-poll returned no events after churn")
	}
	ev := resp.Events[len(resp.Events)-1]
	if ev.Provenance.Epoch != plan2.Epoch || ev.Provenance.Cause != CauseChurn {
		t.Fatalf("event provenance = %+v, want churn epoch %d", ev.Provenance, plan2.Epoch)
	}
	if ev.Diff.FromEpoch != plan1.Epoch || ev.Diff.ToEpoch != plan2.Epoch {
		t.Fatalf("diff bounds %d->%d, want %d->%d",
			ev.Diff.FromEpoch, ev.Diff.ToEpoch, plan1.Epoch, plan2.Epoch)
	}
	assertDiffMatchesPlans(t, ev.Diff, plan1, plan2)

	// An expired empty poll is a 200 with no events, not an error.
	status, body := doReq(t, "GET",
		fmt.Sprintf("%s/v1/plan/changes?since_epoch=%d&wait_ms=20", base, plan2.Epoch), nil)
	if status != http.StatusOK {
		t.Fatalf("empty poll = %d %s", status, body)
	}
	if err := json.Unmarshal(body, &resp); err != nil || len(resp.Events) != 0 {
		t.Fatalf("empty poll body = %s (err %v)", body, err)
	}
	if resp.LastEpoch != plan2.Epoch {
		t.Fatalf("empty poll last_epoch = %d, want %d", resp.LastEpoch, plan2.Epoch)
	}
}

// waitFeedSubscribers waits until the service's change feed has want
// subscribers.
func waitFeedSubscribers(t *testing.T, svc *Service, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		svc.feed.mu.Lock()
		n := svc.feed.subs
		svc.feed.mu.Unlock()
		if n == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("feed has %d subscribers, want %d", n, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestLongPollOutlivesStaleWake: a feed event at or below since_epoch
// (a late publish of the poll's own starting epoch) wakes a parked
// long-poll but must not end it. The test drives the audit log and the
// feed by hand, so each wake-up is placed after the poll subscribed.
func TestLongPollOutlivesStaleWake(t *testing.T) {
	cfg := testConfig()
	cfg.DefaultDeadline = 30 * time.Second // the poll window never closes here
	svc := newTestService(t, cfg)
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	if err := svc.audit.Append(testEpochRecord(1)); err != nil {
		t.Fatal(err)
	}

	type result struct {
		status int
		resp   planHistoryResponse
		err    error
	}
	poll := func(since int64) <-chan result {
		done := make(chan result, 1)
		go func() {
			var r result
			resp, err := http.Get(fmt.Sprintf("%s/v1/plan/changes?since_epoch=%d&wait_ms=30000", ts.URL, since))
			if err != nil {
				done <- result{err: err}
				return
			}
			defer resp.Body.Close()
			r.status = resp.StatusCode
			r.err = json.NewDecoder(resp.Body).Decode(&r.resp)
			done <- r
		}()
		return done
	}
	await := func(done <-chan result) result {
		t.Helper()
		select {
		case r := <-done:
			if r.err != nil {
				t.Fatal(r.err)
			}
			return r
		case <-time.After(10 * time.Second):
			t.Fatal("long-poll never returned")
			return result{}
		}
	}

	// A stale wake, then a real epoch: the poll returns the real one.
	done := poll(1)
	waitFeedSubscribers(t, svc, 1)
	svc.feed.Publish(testEpochRecord(1))
	if err := svc.audit.Append(testEpochRecord(2)); err != nil {
		t.Fatal(err)
	}
	svc.feed.Publish(testEpochRecord(2))
	r := await(done)
	if r.status != http.StatusOK || len(r.resp.Events) != 1 || r.resp.Events[0].Provenance.Epoch != 2 {
		t.Fatalf("poll after a stale wake = %d %+v, want epoch 2", r.status, r.resp)
	}

	// A stale wake, then the feed closes: the poll must still be parked
	// when the close arrives (a typed draining refusal), not answer the
	// stale wake with an empty 200. The feed reports a publish before it
	// reports the close, so this is deterministic.
	waitFeedSubscribers(t, svc, 0) // the first poll has unsubscribed
	done = poll(2)
	waitFeedSubscribers(t, svc, 1)
	svc.feed.Publish(testEpochRecord(2))
	svc.feed.Close()
	r = await(done)
	if r.status != http.StatusServiceUnavailable {
		t.Fatalf("poll woken only by a stale epoch answered %d %+v, want 503 draining", r.status, r.resp)
	}
}

// readSSEEvents consumes the stream until want "epoch" events arrived
// (other event types are collected too) or the reader fails.
func readSSEEvents(t *testing.T, r *bufio.Reader, want int) (epochs []EpochRecord, others []string) {
	t.Helper()
	var event string
	for len(epochs) < want {
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("SSE stream ended early (%v) with %d/%d epoch events", err, len(epochs), want)
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			if event != "epoch" {
				others = append(others, event)
				continue
			}
			var rec EpochRecord
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &rec); err != nil {
				t.Fatalf("SSE data does not parse: %v: %s", err, line)
			}
			epochs = append(epochs, rec)
		}
	}
	return epochs, others
}

// TestHTTPPlanChangesSSE: the stream replays the backlog after
// since_epoch, then delivers live epochs; deltas again match the served
// plans.
func TestHTTPPlanChangesSSE(t *testing.T) {
	srv, svc := startTestServer(t, testConfig())
	base := "http://" + srv.Addr()

	doReq(t, "PUT", base+"/v1/tenants/t1", profileBytes(t, testProfile(t, 1)))
	waitForEpoch(t, svc, []string{"t1"})
	_, body := doReq(t, "GET", base+"/v1/plan", nil)
	var plan1 Plan
	if err := json.Unmarshal(body, &plan1); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", base+"/v1/plan/changes?stream=sse&since_epoch=0", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(resp.Header.Get("Content-Type"), "text/event-stream") {
		t.Fatalf("SSE handshake = %d %q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	reader := bufio.NewReader(resp.Body)

	// Backlog: epoch 1 arrives before any churn.
	backlog, _ := readSSEEvents(t, reader, 1)
	if backlog[0].Provenance.Epoch != plan1.Epoch {
		t.Fatalf("backlog epoch %d, want %d", backlog[0].Provenance.Epoch, plan1.Epoch)
	}

	// Live: churn while the stream is open.
	doReq(t, "PUT", base+"/v1/tenants/t2", profileBytes(t, testProfile(t, 2)))
	waitForEpoch(t, svc, []string{"t1", "t2"})
	_, body = doReq(t, "GET", base+"/v1/plan", nil)
	var plan2 Plan
	if err := json.Unmarshal(body, &plan2); err != nil {
		t.Fatal(err)
	}
	live, _ := readSSEEvents(t, reader, 1)
	if live[0].Provenance.Epoch != plan2.Epoch {
		t.Fatalf("live epoch %d, want %d", live[0].Provenance.Epoch, plan2.Epoch)
	}
	assertDiffMatchesPlans(t, live[0].Diff, plan1, plan2)
}

// TestFailedAuditAppendIsAGap: an epoch whose audit append fails never
// reaches a parked long-poll, an open SSE stream or /v1/plan/history;
// each delivers the next audited epoch behind a gap flag or gap event.
func TestFailedAuditAppendIsAGap(t *testing.T) {
	srv, svc := startTestServer(t, testConfig())
	base := "http://" + srv.Addr()
	doReq(t, "PUT", base+"/v1/tenants/t1", profileBytes(t, testProfile(t, 1)))
	p1 := waitForEpoch(t, svc, []string{"t1"})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	time.AfterFunc(10*time.Second, cancel) // a stream that stalls fails its read
	req, err := http.NewRequestWithContext(ctx, "GET",
		fmt.Sprintf("%s/v1/plan/changes?stream=sse&since_epoch=%d", base, p1.Epoch), nil)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	pollDone := make(chan planHistoryResponse, 1)
	go func() {
		var resp planHistoryResponse
		r, err := http.Get(fmt.Sprintf("%s/v1/plan/changes?since_epoch=%d&wait_ms=1900", base, p1.Epoch))
		if err == nil {
			err = json.NewDecoder(r.Body).Decode(&resp)
			r.Body.Close()
		}
		if err != nil {
			t.Errorf("long-poll: %v", err)
		}
		pollDone <- resp
	}()
	waitFeedSubscribers(t, svc, 2)

	plan := faultinject.NewPlan()
	plan.Set(FaultAuditAppend, faultinject.Rule{Count: 1})
	faultinject.Enable(plan)
	defer faultinject.Enable(nil)
	doReq(t, "PUT", base+"/v1/tenants/t2", profileBytes(t, testProfile(t, 2)))
	p2 := waitForEpoch(t, svc, []string{"t1", "t2"})
	if last := svc.Audit().LastEpoch(); last != p1.Epoch {
		t.Fatalf("audit LastEpoch = %d after the failed append of epoch %d, want %d", last, p2.Epoch, p1.Epoch)
	}
	doReq(t, "PUT", base+"/v1/tenants/t3", profileBytes(t, testProfile(t, 3)))
	p3 := waitForEpoch(t, svc, []string{"t1", "t2", "t3"})

	check := func(mode string, gap bool, epochs []int64) {
		t.Helper()
		if !gap || len(epochs) != 1 || epochs[0] != p3.Epoch {
			t.Fatalf("%s: gap=%v epochs=%v, want a gap then epoch %d only (epoch %d was never audited)",
				mode, gap, epochs, p3.Epoch, p2.Epoch)
		}
	}
	epochsOf := func(events []EpochRecord) []int64 {
		var out []int64
		for _, ev := range events {
			out = append(out, ev.Provenance.Epoch)
		}
		return out
	}
	select {
	case resp := <-pollDone:
		check("long-poll", resp.Gap, epochsOf(resp.Events))
	case <-time.After(5 * time.Second):
		t.Fatal("long-poll never returned")
	}
	events, others := readSSEEvents(t, bufio.NewReader(stream.Body), 1)
	check("sse", len(others) == 1 && others[0] == "gap", epochsOf(events))
	var hist planHistoryResponse
	_, body := doReq(t, "GET", fmt.Sprintf("%s/v1/plan/history?since_epoch=%d", base, p1.Epoch), nil)
	if err := json.Unmarshal(body, &hist); err != nil {
		t.Fatal(err)
	}
	check("history", hist.Gap, epochsOf(hist.Events))
}

// TestHTTPPlanHistory: since_epoch filtering, last_epoch, and the gap
// flag when retention has dropped the records a client asks for.
func TestHTTPPlanHistory(t *testing.T) {
	// Reopen the audit log with a retention of 2 before the server starts.
	svc := newTestService(t, testConfig())
	if err := svc.audit.Close(); err != nil {
		t.Fatal(err)
	}
	audit, err := OpenAuditLog(svc.store.Dir(), 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	svc.audit = audit
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	srv, err := StartServer(ctx, svc, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	var group []string
	for i := uint64(1); i <= 4; i++ {
		name := fmt.Sprintf("t%d", i)
		doReq(t, "PUT", base+"/v1/tenants/"+name, profileBytes(t, testProfile(t, i)))
		group = append(group, name)
		waitForEpoch(t, svc, group)
	}

	status, body := doReq(t, "GET", base+"/v1/plan/history?since_epoch=3", nil)
	if status != http.StatusOK {
		t.Fatalf("history = %d %s", status, body)
	}
	var resp planHistoryResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.LastEpoch != 4 || len(resp.Events) != 1 || resp.Events[0].Provenance.Epoch != 4 {
		t.Fatalf("history since 3 = %s", body)
	}
	if resp.Gap {
		t.Fatal("contiguous resume flagged as gap")
	}

	// since_epoch=0 asks for epochs 1..4, but retention only holds 3..4.
	_, body = doReq(t, "GET", base+"/v1/plan/history?since_epoch=0", nil)
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Gap {
		t.Fatalf("retention hole not flagged: %s", body)
	}
	if len(resp.Events) != 2 || resp.Events[0].Provenance.Epoch != 3 {
		t.Fatalf("retained window = %s", body)
	}

	// Malformed parameters are client errors.
	if status, _ := doReq(t, "GET", base+"/v1/plan/history?since_epoch=frogs", nil); status != http.StatusBadRequest {
		t.Fatalf("bad since_epoch = %d", status)
	}
	if status, _ := doReq(t, "GET", base+"/v1/plan/changes?wait_ms=-1", nil); status != http.StatusBadRequest {
		t.Fatalf("bad wait_ms = %d", status)
	}

	// The human timeline renders the same records.
	status, body = doReq(t, "GET", base+"/debug/epochs", nil)
	if status != http.StatusOK || !strings.Contains(string(body), "epoch 4") {
		t.Fatalf("/debug/epochs = %d %s", status, body)
	}
	if !strings.Contains(string(body), "cause=churn") {
		t.Fatalf("/debug/epochs missing provenance: %s", body)
	}
}

// TestFlightRecordCarriesEpoch: a served plan request's flight-recorder
// entry carries the epoch it served, linking /debug/requests to
// /debug/epochs.
func TestFlightRecordCarriesEpoch(t *testing.T) {
	_, _, fr := withTelemetry(t)
	svc := newTestService(t, testConfig())
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	svc.Start(ctx)
	if err := svc.Register(nil, "t1", testProfile(t, 1)); err != nil {
		t.Fatal(err)
	}
	p := waitForEpoch(t, svc, []string{"t1"})

	rec := serveDirect(t, svc.Handler(), "GET", "/v1/plan", "", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /v1/plan = %d %s", rec.Code, rec.Body.String())
	}
	snap := fr.Snapshot()
	var found bool
	for _, r := range snap.Recent {
		if r.Route == "plan_get" && r.Epoch == p.Epoch {
			found = true
		}
	}
	if !found {
		t.Fatalf("no plan_get record with epoch %d in %+v", p.Epoch, snap.Recent)
	}
}

// TestDrainClosesChangeFeed: Drain must wake a parked long-poll so
// shutdown cannot hang behind a subscriber; the poll resolves as a
// typed draining refusal (or a clean empty poll if it raced the close).
func TestDrainClosesChangeFeed(t *testing.T) {
	srv, svc := startTestServer(t, testConfig())
	base := "http://" + srv.Addr()
	doReq(t, "PUT", base+"/v1/tenants/t1", profileBytes(t, testProfile(t, 1)))
	p := waitForEpoch(t, svc, []string{"t1"})

	pollDone := make(chan int, 1)
	go func() {
		status, _ := doReq(t, "GET",
			fmt.Sprintf("%s/v1/plan/changes?since_epoch=%d&wait_ms=1900", base, p.Epoch), nil)
		pollDone <- status
	}()
	waitFeedSubscribers(t, svc, 1) // the poll has subscribed: drain now

	drainDone := make(chan error, 1)
	go func() { drainDone <- srv.Drain(5 * time.Second) }()
	select {
	case status := <-pollDone:
		if status != http.StatusServiceUnavailable && status != http.StatusOK {
			t.Fatalf("parked poll resolved with %d during drain", status)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("drain left the long-poll parked")
	}
	if err := <-drainDone; err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// TestPlanChurnMetrics: the epoch gauge tracks the current epoch and
// units_moved accumulates, in both the registry and the exposition.
func TestPlanChurnMetrics(t *testing.T) {
	reg, _, _ := withTelemetry(t)
	svc := newTestService(t, testConfig())
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	svc.Start(ctx)

	if err := svc.Register(nil, "t1", testProfile(t, 1)); err != nil {
		t.Fatal(err)
	}
	waitForEpoch(t, svc, []string{"t1"})
	if err := svc.Register(nil, "t2", testProfile(t, 2)); err != nil {
		t.Fatal(err)
	}
	p2 := waitForEpoch(t, svc, []string{"t1", "t2"})

	if got := reg.Gauge(mPlanEpoch).Value(); got != p2.Epoch {
		t.Fatalf("%s = %d, want %d", mPlanEpoch, got, p2.Epoch)
	}
	if reg.Counter(mPlanUnitsMoved).Value() <= 0 {
		t.Fatalf("%s never incremented", mPlanUnitsMoved)
	}
	var buf strings.Builder
	if err := obs.WritePrometheus(&buf, reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	expo := buf.String()
	for _, want := range []string{"service_plan_epoch", "service_plan_units_moved"} {
		if !strings.Contains(expo, want) {
			t.Fatalf("exposition missing %s:\n%s", want, expo)
		}
	}
}
