package obs

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// A fixed registry population whose Prometheus rendering is pinned by
// testdata/prom.golden. Regenerate with
//
//	go test ./internal/obs -run Prom -update-golden
func promFixture() *Registry {
	reg := NewRegistry()
	reg.Counter("service.plan.requests").Add(42)
	reg.Counter("service.req.shed").Add(3)
	reg.Gauge("service.queue.depth").Set(7)
	h := reg.Histogram("service.http.latency_ns.plan", []int64{1000, 10_000, 100_000})
	h.Observe(500)
	h.Observe(5_000)
	h.Observe(5_500)
	h.Observe(2_000_000) // +Inf bucket
	cs := reg.ChildSet("service.tenant.", 4)
	cs.Add("acme", "requests.plan", 9)
	cs.Add("acme", "errors.5xx", 1)
	return reg
}

func TestPrometheusGolden(t *testing.T) {
	var b strings.Builder
	if err := WritePrometheus(&b, promFixture().Snapshot()); err != nil {
		t.Fatal(err)
	}
	got := b.String()

	goldenPath := filepath.Join("testdata", "prom.golden")
	if *updateGolden {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", goldenPath)
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden (run with -update-golden to create): %v", err)
	}
	if got != string(want) {
		t.Fatalf("prometheus exposition drifted from golden:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// Determinism is what makes the golden meaningful: repeated renders of
// the same snapshot must be byte-identical (map iteration must never
// leak into the output).
func TestPrometheusDeterministic(t *testing.T) {
	snap := promFixture().Snapshot()
	var first string
	for i := 0; i < 5; i++ {
		var b strings.Builder
		if err := WritePrometheus(&b, snap); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = b.String()
			continue
		}
		if b.String() != first {
			t.Fatalf("render %d differs from render 0", i)
		}
	}
}

// The exposition contract scrapers depend on: cumulative le-labeled
// buckets are monotone non-decreasing, the +Inf bucket equals _count,
// and counters carry the _total suffix.
func TestPrometheusHistogramContract(t *testing.T) {
	var b strings.Builder
	if err := WritePrometheus(&b, promFixture().Snapshot()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(b.String(), "\n")

	var prev int64 = -1
	var infCount, count int64
	sawInf, sawCount := false, false
	for _, line := range lines {
		switch {
		case strings.HasPrefix(line, "service_http_latency_ns_plan_bucket{le=\"+Inf\"}"):
			infCount, _ = strconv.ParseInt(line[strings.LastIndexByte(line, ' ')+1:], 10, 64)
			sawInf = true
			if infCount < prev {
				t.Fatalf("+Inf bucket %d below preceding cumulative %d", infCount, prev)
			}
		case strings.HasPrefix(line, "service_http_latency_ns_plan_bucket{"):
			v, _ := strconv.ParseInt(line[strings.LastIndexByte(line, ' ')+1:], 10, 64)
			if v < prev {
				t.Fatalf("cumulative buckets not monotone: %d after %d", v, prev)
			}
			prev = v
		case strings.HasPrefix(line, "service_http_latency_ns_plan_count "):
			count, _ = strconv.ParseInt(line[strings.LastIndexByte(line, ' ')+1:], 10, 64)
			sawCount = true
		}
	}
	if !sawInf || !sawCount {
		t.Fatal("histogram missing +Inf bucket or _count line")
	}
	if infCount != count {
		t.Fatalf("+Inf bucket %d != _count %d", infCount, count)
	}
	out := b.String()
	if !strings.Contains(out, "service_plan_requests_total 42") {
		t.Fatal("counter missing _total suffix or value")
	}
	if !strings.Contains(out, "# TYPE service_plan_requests_total counter") {
		t.Fatal("counter missing TYPE line")
	}
	// Child-set series fold in like any other counter.
	if !strings.Contains(out, "service_tenant_acme_requests_plan_total 9") {
		t.Fatal("per-tenant child series missing from exposition")
	}
}

func TestPromName(t *testing.T) {
	cases := map[string]string{
		"service.plan.requests": "service_plan_requests",
		"already_fine":          "already_fine",
		"with:colon":            "with:colon",
		"weird-chars/here":      "weird_chars_here",
	}
	for in, want := range cases {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}
