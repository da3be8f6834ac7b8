//go:build ignore

// Checkservice is the partitiond end-to-end smoke: it starts the daemon
// on an ephemeral port, registers two tenants by profile upload, requests
// a plan for the pair, and cross-checks the served allocation and group
// miss ratio against the offline optpart CLI run on the same profiles at
// the same geometry — the two paths must agree exactly (the service's
// bit-exactness contract, observed end to end through both CLIs). The
// registrations are staged to exercise the plan-lifecycle surface: the
// first tenant's epoch is captured from GET /v1/plan, a long-poll on
// GET /v1/plan/changes is parked beside an SSE stream of the same
// route, and the second registration must wake both with the same epoch
// event, whose per-tenant deltas exactly match the difference of the
// two served plans. Before any of that, a 78-byte
// profile declaring a 2^28-entry histogram must get a prompt 4xx. It
// also asserts the observability surface: traceparent propagation on a
// plan request, the Prometheus
// exposition at /metrics/prom (including the service_plan_epoch gauge),
// the flight recorder at /debug/requests, and the /debug/epochs
// timeline. It then SIGTERMs the daemon and asserts the drain contract:
// exit status 0 and a manifest that parses and names the tool.
//
// Usage:
//
//	go run scripts/checkservice.go PARTITIOND_BIN OPTPART_BIN A.hotl B.hotl
//
// The binaries are prebuilt by the caller (go build -o ...) so the
// daemon receives signals directly rather than through a go-run wrapper.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

const (
	units         = 256
	blocksPerUnit = 4
)

func main() {
	if len(os.Args) != 5 {
		fail("usage: checkservice PARTITIOND_BIN OPTPART_BIN A.hotl B.hotl")
	}
	daemonBin, optpartBin := os.Args[1], os.Args[2]
	profiles := os.Args[3:5]

	dir, err := os.MkdirTemp("", "checkservice-")
	if err != nil {
		fail("%v", err)
	}
	cleanup = func() { os.RemoveAll(dir) }
	defer cleanup()
	addrFile := filepath.Join(dir, "addr")
	manifestPath := filepath.Join(dir, "manifest.json")

	// Start the daemon on an ephemeral port; the bound address lands in
	// addr-file once the listener is up.
	daemon := exec.Command(daemonBin,
		"-addr", "127.0.0.1:0",
		"-addr-file", addrFile,
		"-store", filepath.Join(dir, "store"),
		"-units", strconv.Itoa(units),
		"-blocksperunit", strconv.Itoa(blocksPerUnit),
		"-manifest", manifestPath,
	)
	daemon.Stderr = os.Stderr
	if err := daemon.Start(); err != nil {
		fail("start partitiond: %v", err)
	}
	cleanup = func() {
		daemon.Process.Kill()
		os.RemoveAll(dir)
	}

	base := "http://" + waitForAddr(addrFile)

	checkHostileProfile(base)

	// Register the tenants one at a time, under names "a" and "b" so the
	// plan's allocation order is pinned to the argument order. The stagger
	// produces two distinct epochs, which the change-feed check below
	// diffs against each other.
	names := []string{"a", "b"}
	registerTenant(base, names[0], profiles[0])
	plan1 := waitForServedPlan(base, names[:1])

	// Park a long-poll past plan1's epoch before the churn that ends it.
	pollCh := make(chan []byte, 1)
	go func() {
		status, body := doReq("GET", fmt.Sprintf(
			"%s/v1/plan/changes?since_epoch=%d&wait_ms=10000", base, plan1.Epoch), nil)
		if status != http.StatusOK {
			fail("long-poll /v1/plan/changes = %d %s", status, body)
		}
		pollCh <- body
	}()
	sseCh := openChangeStream(base, plan1.Epoch)
	time.Sleep(50 * time.Millisecond) // give the poll time to park

	registerTenant(base, names[1], profiles[1])
	plan2 := waitForServedPlan(base, names)
	checkChangeFeedEvent(pollCh, sseCh, plan1, plan2)

	status, resp := doReq("POST", base+"/v1/plan", []byte(`{"tenants":["a","b"]}`))
	if status != http.StatusOK {
		fail("POST /v1/plan = %d %s", status, resp)
	}
	var plan struct {
		Alloc          []int   `json:"alloc"`
		GroupMissRatio float64 `json:"group_miss_ratio"`
	}
	if err := json.Unmarshal(resp, &plan); err != nil {
		fail("plan does not parse: %v: %s", err, resp)
	}
	if len(plan.Alloc) != 2 {
		fail("plan has %d allocations, want 2: %s", len(plan.Alloc), resp)
	}

	// The offline optimizer on the same profiles at the same geometry.
	wantAlloc, wantMR := offlineOptimal(optpartBin, profiles)
	if plan.Alloc[0] != wantAlloc[0] || plan.Alloc[1] != wantAlloc[1] {
		fail("daemon alloc %v, offline optpart alloc %v", plan.Alloc, wantAlloc)
	}
	if got := fmt.Sprintf("%.6f", plan.GroupMissRatio); got != wantMR {
		fail("daemon group miss ratio %s, offline optpart %s", got, wantMR)
	}

	if status, _ := doReq("GET", base+"/readyz", nil); status != http.StatusOK {
		fail("readyz = %d", status)
	}

	checkObservability(base)

	// Drain contract: SIGTERM, clean exit 0, manifest written and parseable.
	if err := daemon.Process.Signal(syscall.SIGTERM); err != nil {
		fail("signal: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- daemon.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			fail("partitiond exit after SIGTERM: %v (want status 0)", err)
		}
	case <-time.After(30 * time.Second):
		fail("partitiond did not drain within 30s of SIGTERM")
	}
	data, err := os.ReadFile(manifestPath)
	if err != nil {
		fail("drained daemon left no manifest: %v", err)
	}
	var m struct {
		Tool string `json:"tool"`
	}
	if err := json.Unmarshal(data, &m); err != nil {
		fail("manifest does not parse: %v", err)
	}
	if m.Tool != "partitiond" {
		fail("manifest tool = %q, want partitiond", m.Tool)
	}
	fmt.Printf("checkservice OK: plan %v mr %s matches offline optpart; clean drain with manifest\n",
		plan.Alloc, wantMR)
}

// servedPlan is the slice of the plan document the lifecycle checks
// need: identity (epoch), membership, and the allocation.
type servedPlan struct {
	Epoch    int64    `json:"epoch"`
	Tenants  []string `json:"tenants"`
	Alloc    []int    `json:"alloc"`
	Degraded bool     `json:"degraded"`
}

func registerTenant(base, name, profilePath string) {
	body, err := os.ReadFile(profilePath)
	if err != nil {
		fail("%v", err)
	}
	status, resp := doReq("PUT", base+"/v1/tenants/"+name, body)
	if status != http.StatusOK {
		fail("PUT tenant %s = %d %s", name, status, resp)
	}
}

// hostileProfile is 78 bytes that declare a 2^28-entry reuse histogram
// and then end. The daemon must reject it as a corrupt profile promptly,
// without first allocating for the declared size.
const hostileProfile = "hotlprof v1\nname x\nrate 1\nn 1000000000000 m 1\nreuse 268435456\n1 1\n"

// checkHostileProfile PUTs hostileProfile and expects the typed 4xx error
// envelope within a few seconds; the register → plan → cross-check steps
// that follow then show the daemon is unharmed.
func checkHostileProfile(base string) {
	client := &http.Client{Timeout: 5 * time.Second}
	req, err := http.NewRequest("PUT", base+"/v1/tenants/hostile", strings.NewReader(hostileProfile))
	if err != nil {
		fail("%v", err)
	}
	resp, err := client.Do(req)
	if err != nil {
		fail("PUT hostile profile: %v (want a prompt 4xx)", err)
	}
	defer resp.Body.Close()
	var env struct {
		Error  string `json:"error"`
		Detail string `json:"detail"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		fail("PUT hostile profile: error envelope does not parse: %v", err)
	}
	if resp.StatusCode < 400 || resp.StatusCode >= 500 || env.Error != "bad_request" ||
		!strings.Contains(env.Detail, "corrupt profile") {
		fail("PUT hostile profile = %d %+v, want 400 bad_request naming a corrupt profile", resp.StatusCode, env)
	}
}

// waitForServedPlan polls GET /v1/plan until the background loop serves
// a fresh plan covering exactly the wanted tenant set.
func waitForServedPlan(base string, want []string) servedPlan {
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		status, body := doReq("GET", base+"/v1/plan", nil)
		if status == http.StatusOK {
			var p servedPlan
			if err := json.Unmarshal(body, &p); err != nil {
				fail("served plan does not parse: %v: %s", err, body)
			}
			if !p.Degraded && len(p.Tenants) == len(want) {
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
		}
		time.Sleep(20 * time.Millisecond)
	}
	fail("daemon never served a fresh plan for %v", want)
	return servedPlan{}
}

// A feedEvent is the part of an epoch record the change-feed check
// compares.
type feedEvent struct {
	Provenance struct {
		Epoch int64  `json:"epoch"`
		Cause string `json:"cause"`
	} `json:"provenance"`
	Diff struct {
		FromEpoch int64 `json:"from_epoch"`
		ToEpoch   int64 `json:"to_epoch"`
		Deltas    []struct {
			Tenant     string `json:"tenant"`
			FromUnits  int    `json:"from_units"`
			ToUnits    int    `json:"to_units"`
			DeltaUnits int    `json:"delta_units"`
		} `json:"deltas"`
	} `json:"diff"`
}

// openChangeStream opens GET /v1/plan/changes as an SSE stream after
// since and returns a channel that receives the stream's first epoch
// event. A gap or any other event before it, or an early end, fails.
func openChangeStream(base string, since int64) <-chan feedEvent {
	resp, err := http.Get(fmt.Sprintf("%s/v1/plan/changes?stream=sse&since_epoch=%d", base, since))
	if err != nil {
		fail("SSE /v1/plan/changes: %v", err)
	}
	if resp.StatusCode != http.StatusOK || !strings.HasPrefix(resp.Header.Get("Content-Type"), "text/event-stream") {
		fail("SSE /v1/plan/changes = %d %q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	ch := make(chan feedEvent, 1)
	go func() {
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(nil, 1<<20)
		event := ""
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, "event: "):
				event = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				if event != "epoch" {
					fail("SSE stream sent a %q event before any epoch: %s", event, line)
				}
				var ev feedEvent
				if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
					fail("SSE epoch event does not parse: %v: %s", err, line)
				}
				ch <- ev
				return
			}
		}
		fail("SSE stream ended before any epoch event (%v)", sc.Err())
	}()
	return ch
}

// checkChangeFeedEvent receives the parked long-poll's response and the
// SSE stream's first event and cross-checks both against the two served
// plans: each must be plan2's epoch, every per-tenant delta must be
// exactly the difference between the allocations the daemon actually
// served — the feed reports what a client would compute from its own
// polls, no more and no less — and the two modes must report the same
// event.
func checkChangeFeedEvent(pollCh <-chan []byte, sseCh <-chan feedEvent, plan1, plan2 servedPlan) {
	var body []byte
	select {
	case body = <-pollCh:
	case <-time.After(15 * time.Second):
		fail("long-poll on /v1/plan/changes never returned after churn")
	}
	var resp struct {
		LastEpoch int64       `json:"last_epoch"`
		Events    []feedEvent `json:"events"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		fail("change-feed response does not parse: %v: %s", err, body)
	}
	if len(resp.Events) == 0 {
		fail("change feed woke with no events: %s", body)
	}
	polled := resp.Events[len(resp.Events)-1]
	if polled.Provenance.Epoch != plan2.Epoch {
		fail("change feed never reported epoch %d: %s", plan2.Epoch, body)
	}
	checkEpochEvent("long-poll", polled, plan1, plan2)
	var streamed feedEvent
	select {
	case streamed = <-sseCh:
	case <-time.After(15 * time.Second):
		fail("SSE stream on /v1/plan/changes sent no epoch after churn")
	}
	checkEpochEvent("sse", streamed, plan1, plan2)
	if !reflect.DeepEqual(streamed, polled) {
		fail("SSE event %+v differs from the long-poll's %+v", streamed, polled)
	}
}

// checkEpochEvent checks one change-feed event against the served plans
// before (plan1) and after (plan2) its epoch.
func checkEpochEvent(mode string, ev feedEvent, plan1, plan2 servedPlan) {
	unitsOf := func(p servedPlan) map[string]int {
		m := make(map[string]int, len(p.Tenants))
		for i, n := range p.Tenants {
			m[n] = p.Alloc[i]
		}
		return m
	}
	from, to := unitsOf(plan1), unitsOf(plan2)
	if ev.Provenance.Epoch != plan2.Epoch || ev.Provenance.Cause != "churn" {
		fail("%s: event epoch %d cause %q, want churn epoch %d",
			mode, ev.Provenance.Epoch, ev.Provenance.Cause, plan2.Epoch)
	}
	if ev.Diff.FromEpoch != plan1.Epoch || ev.Diff.ToEpoch != plan2.Epoch {
		fail("%s: diff bounds %d->%d, want %d->%d",
			mode, ev.Diff.FromEpoch, ev.Diff.ToEpoch, plan1.Epoch, plan2.Epoch)
	}
	reported := make(map[string]bool, len(ev.Diff.Deltas))
	for _, d := range ev.Diff.Deltas {
		reported[d.Tenant] = true
		if d.FromUnits != from[d.Tenant] || d.ToUnits != to[d.Tenant] ||
			d.DeltaUnits != d.ToUnits-d.FromUnits {
			fail("%s: delta for %s is %+v, served plans say %d -> %d",
				mode, d.Tenant, d, from[d.Tenant], to[d.Tenant])
		}
	}
	// Every tenant that moved has an entry.
	for n, u := range to {
		if u != from[n] && !reported[n] {
			fail("%s: tenant %s moved %d -> %d but the event has no delta for it", mode, n, from[n], u)
		}
	}
}

// checkObservability asserts the daemon's request-telemetry surface:
// W3C trace-context propagation on a plan request, the Prometheus text
// exposition at /metrics/prom (content type, HELP/TYPE metadata,
// monotone cumulative histogram buckets, a live service_requests_total
// rollup, and the service_plan_epoch gauge tracking the published
// epoch), a non-empty flight recorder at /debug/requests, and the
// /debug/epochs timeline rendering the audited transitions.
func checkObservability(base string) {
	// A well-formed caller traceparent: the daemon must keep the trace
	// ID (so the caller can correlate) but mint its own span ID.
	const callerTrace = "4bf92f3577b34da6a3ce929d0e0e4736"
	const callerSpan = "00f067aa0ba902b7"
	status, _, hdr := doReqTrace("POST", base+"/v1/plan",
		[]byte(`{"tenants":["a","b"]}`), "00-"+callerTrace+"-"+callerSpan+"-01")
	if status != http.StatusOK {
		fail("traced POST /v1/plan = %d", status)
	}
	echo := hdr.Get("traceparent")
	parts := strings.Split(echo, "-")
	if len(parts) != 4 || parts[1] != callerTrace {
		fail("traceparent trace ID not propagated: sent %s, echoed %q", callerTrace, echo)
	}
	if parts[2] == callerSpan {
		fail("daemon echoed the caller's span ID instead of minting its own: %q", echo)
	}

	status, prom, hdr := doReqTrace("GET", base+"/metrics/prom", nil, "")
	if status != http.StatusOK {
		fail("GET /metrics/prom = %d", status)
	}
	const wantCT = "text/plain; version=0.0.4; charset=utf-8"
	if ct := hdr.Get("Content-Type"); ct != wantCT {
		fail("/metrics/prom content type %q, want %q", ct, wantCT)
	}
	text := string(prom)
	if !strings.Contains(text, "# HELP ") || !strings.Contains(text, "# TYPE ") {
		fail("/metrics/prom exposition lacks HELP/TYPE metadata:\n%s", text)
	}
	total, sawTotal := int64(0), false
	planEpoch, sawPlanEpoch := int64(0), false
	prevBucketMetric, prevBucket := "", int64(-1)
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "service_plan_epoch ") {
			v, err := strconv.ParseInt(line[strings.LastIndexByte(line, ' ')+1:], 10, 64)
			if err != nil {
				fail("service_plan_epoch line %q: %v", line, err)
			}
			planEpoch, sawPlanEpoch = v, true
		}
		if strings.HasPrefix(line, "service_requests_total ") {
			v, err := strconv.ParseInt(line[strings.LastIndexByte(line, ' ')+1:], 10, 64)
			if err != nil {
				fail("service_requests_total line %q: %v", line, err)
			}
			total, sawTotal = v, true
		}
		if i := strings.Index(line, "_bucket{le="); i >= 0 && !strings.HasPrefix(line, "#") {
			metric := line[:i]
			v, err := strconv.ParseInt(line[strings.LastIndexByte(line, ' ')+1:], 10, 64)
			if err != nil {
				fail("bucket line %q: %v", line, err)
			}
			if metric != prevBucketMetric {
				prevBucketMetric, prevBucket = metric, -1
			}
			if v < prevBucket {
				fail("%s cumulative buckets not monotone: %d after %d", metric, v, prevBucket)
			}
			prevBucket = v
		}
	}
	if !sawTotal || total < 1 {
		fail("service_requests_total missing or zero after served requests (saw=%v total=%d)", sawTotal, total)
	}
	if prevBucketMetric == "" {
		fail("/metrics/prom exposition carries no histogram buckets")
	}
	if !sawPlanEpoch || planEpoch < 2 {
		fail("service_plan_epoch missing or behind after two epochs (saw=%v epoch=%d)", sawPlanEpoch, planEpoch)
	}

	status, epochs, _ := doReqTrace("GET", base+"/debug/epochs", nil, "")
	if status != http.StatusOK {
		fail("GET /debug/epochs = %d", status)
	}
	if !strings.Contains(string(epochs), "cause=churn") {
		fail("/debug/epochs timeline lacks provenance lines:\n%s", epochs)
	}

	status, flight, _ := doReqTrace("GET", base+"/debug/requests", nil, "")
	if status != http.StatusOK {
		fail("GET /debug/requests = %d", status)
	}
	var snap struct {
		Total  int64 `json:"total"`
		Recent []struct {
			TraceID string `json:"trace_id"`
		} `json:"recent"`
	}
	if err := json.Unmarshal(flight, &snap); err != nil {
		fail("/debug/requests does not parse: %v: %s", err, flight)
	}
	if snap.Total < 1 || len(snap.Recent) == 0 {
		fail("flight recorder empty after served requests: %s", flight)
	}
	if snap.Recent[0].TraceID == "" {
		fail("flight record lacks a trace ID: %s", flight)
	}
}

// waitForAddr polls the daemon's addr-file until the bound address
// appears.
func waitForAddr(path string) string {
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if data, err := os.ReadFile(path); err == nil {
			if addr := strings.TrimSpace(string(data)); addr != "" {
				return addr
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	fail("daemon never wrote its address to %s", path)
	return ""
}

// offlineOptimal runs the optpart CLI on the profiles and parses the
// Optimal scheme's block: per-program unit allocations and the group
// miss ratio as printed (6 decimals).
func offlineOptimal(bin string, profiles []string) ([2]int, string) {
	args := []string{
		"-units", strconv.Itoa(units),
		"-blocksperunit", strconv.Itoa(blocksPerUnit),
		"-baselines=false",
	}
	args = append(args, profiles...)
	out, err := exec.Command(bin, args...).Output()
	if err != nil {
		fail("optpart: %v", err)
	}
	lines := strings.Split(string(out), "\n")
	for i, line := range lines {
		if !strings.HasPrefix(line, "Optimal ") {
			continue
		}
		f := strings.Fields(line)
		mr := f[len(f)-1]
		var alloc [2]int
		for j := 0; j < 2; j++ {
			df := strings.Fields(lines[i+1+j])
			// "name NNN units mr 0.NNNNNN"
			u, err := strconv.Atoi(df[1])
			if err != nil {
				fail("optpart detail line %q: %v", lines[i+1+j], err)
			}
			alloc[j] = u
		}
		return alloc, mr
	}
	fail("optpart output lacks the Optimal scheme:\n%s", out)
	return [2]int{}, ""
}

func doReq(method, url string, body []byte) (int, []byte) {
	status, data, _ := doReqTrace(method, url, body, "")
	return status, data
}

// doReqTrace is doReq plus an optional traceparent header on the
// request, returning the response headers for echo assertions.
func doReqTrace(method, url string, body []byte, traceparent string) (int, []byte, http.Header) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		fail("%v", err)
	}
	if traceparent != "" {
		req.Header.Set("traceparent", traceparent)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		fail("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		fail("%v", err)
	}
	return resp.StatusCode, data, resp.Header
}

// cleanup stops the daemon and removes the scratch directory. fail runs
// it too: os.Exit skips deferred calls, and a daemon left running would
// hold the caller's stderr open.
var cleanup = func() {}

// failMu is never released: the first failure reports and exits, and a
// later one (say, the SSE reader seeing the killed daemon's EOF) waits.
var failMu sync.Mutex

func fail(format string, args ...any) {
	failMu.Lock()
	fmt.Fprintf(os.Stderr, "checkservice: "+format+"\n", args...)
	cleanup()
	os.Exit(1)
}
