package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"partitionshare/internal/profileio"
	"partitionshare/internal/reuse"
	"partitionshare/internal/trace"
)

func TestTailPercentile(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{10000, 99.9}, // 10 samples beyond the 99.9th
		{9999, 99},    // 9 beyond the 99.9th: too few
		{1000, 99},
		{999, 95},
		{200, 95},
		{100, 90},
		{64, 80},
		{40, 75},
		{20, 50},
		{19, 50}, // no tail qualifies: the median stands in
		{0, 50},
	}
	for _, c := range cases {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	// The chosen percentile always leaves at least ten samples beyond it.
	for n := 20; n <= 20000; n += 7 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i)
		}
		s := summarize(xs)
		beyond := 0
		for _, x := range xs {
			if x > s.Tail {
				beyond++
			}
		}
		if beyond < 10 {
			t.Fatalf("n=%d: tail p%v = %v has %d samples beyond it", n, s.TailP, s.Tail, beyond)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for p, want := range map[float64]float64{20: 1, 50: 3, 80: 4, 99: 5, 100: 5} {
		if got := percentile(xs, p); got != want {
			t.Errorf("percentile(%v) = %v, want %v", p, got, want)
		}
	}
	if xs[0] != 5 {
		t.Fatal("percentile reordered its input")
	}
}

// A server that stalls on its first request: every request due during
// the stall is sent late, and its latency, timed from the due time,
// includes the wait.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const stall = 200 * time.Millisecond
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			time.Sleep(stall)
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()
	c := newConn(srv.URL)
	defer c.close()

	sched := uniformSchedule(10, 100*time.Millisecond) // due at 5, 15, ..., 95 ms
	start := time.Now()
	samples := openLoop(context.Background(), start, sched, 1, func(_, _ int, _ arrival, _ time.Time) bool {
		status, _, err := c.do(context.Background(), http.MethodGet, "/", nil, "")
		return err == nil && status == http.StatusOK
	})
	for i, s := range samples {
		if !s.OK {
			t.Fatalf("request %d failed", i)
		}
		if s.Latency < s.Lag {
			t.Fatalf("request %d: latency %v below its lag %v", i, s.Latency, s.Lag)
		}
	}
	if samples[0].Latency < stall {
		t.Fatalf("stalled request latency %v, want >= %v", samples[0].Latency, stall)
	}
	// Every later request was due before the stall ended, so each waited
	// at least until then: lag = stall end - due.
	for i := 1; i < len(samples); i++ {
		minLag := stall + sched[0].Due - sched[i].Due
		if samples[i].Lag < minLag-5*time.Millisecond {
			t.Errorf("request %d: lag %v, want >= %v", i, samples[i].Lag, minLag)
		}
	}
	p99, late := lagStats(samples)
	if p99 < ms(stall)/2 || late < 0.9 {
		t.Errorf("lag p99 %.1f ms, late share %.2f: the stall does not show", p99, late)
	}
}

func smallProfile(t *testing.T, name string, seed uint64) tenantProfile {
	t.Helper()
	var buf bytes.Buffer
	p := profileio.Profile{Name: name, Rate: 1, Reuse: reuse.Collect(trace.Generate(trace.NewZipf(512, 0.8, seed), 8192))}
	if err := profileio.Write(&buf, p); err != nil {
		t.Fatal(err)
	}
	return tenantProfile{Name: name, Rate: 1, Body: buf.Bytes()}
}

// Each PUT is matched to the epoch whose provenance carries its trace
// ID, and only to that one.
func TestFeedMatchesWritesByTraceID(t *testing.T) {
	d, err := startDaemon(filepath.Join(t.TempDir(), "daemon"))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := d.stop(); err != nil {
			t.Error(err)
		}
	}()
	ctx := context.Background()
	c := newConn(d.base)
	defer c.close()
	profs := []tenantProfile{smallProfile(t, "a", 1), smallProfile(t, "b", 2), smallProfile(t, "c", 3)}
	if err := d.register(ctx, c, profs); err != nil {
		t.Fatal(err)
	}
	o := options{seed: 7}
	writes := makeChurnWrites(o, len(profs), 6)
	poller := &feedPoller{c: c, last: d.svc.Audit().LastEpoch()}
	for i, wr := range writes {
		status, _, err := c.do(ctx, http.MethodPut, "/v1/tenants/"+profs[wr.Pos].Name, profs[wr.Prof].Body, wr.Traceparent)
		if err != nil || status != http.StatusOK {
			t.Fatalf("write %d: status %d, %v", i, status, err)
		}
		if !poller.waitFor(ctx, wr.TraceID) {
			t.Fatalf("write %d: no epoch carried trace %s", i, wr.TraceID)
		}
		last := poller.events[len(poller.events)-1]
		if last.Provenance.TraceID != wr.TraceID {
			t.Fatalf("write %d matched epoch %d with trace %q", i, last.Provenance.Epoch, last.Provenance.TraceID)
		}
	}
	if poller.violations != 0 || poller.gaps != 0 {
		t.Fatalf("feed: %d epoch-order violations, %d gaps", poller.violations, poller.gaps)
	}
	// A trace no write carried never matches.
	short, cancel := context.WithTimeout(ctx, 300*time.Millisecond)
	defer cancel()
	if poller.waitFor(short, "0123456789abcdef0123456789abcdef") {
		t.Fatal("matched a trace ID no request carried")
	}
}

// BENCHMARK.json at the repository root declares the metrics the
// program prints, in the same order and with the same units.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metricDef             `json:"end_to_end"`
		PerLayer  []metricDef             `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &decl); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(decl.EndToEnd, endToEnd) || !slices.Equal(decl.PerLayer, perLayer) {
		t.Fatal("BENCHMARK.json metrics differ from the program's endToEnd/perLayer lists")
	}
	for _, w := range decl.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names workload %q, which the program does not run", w.Name)
		}
	}
	if len(decl.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program runs %d", len(decl.Workloads), len(workloads))
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []spanRec{
		{ID: 1, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // runs past the parent
	}
	st := selfTimes(spans)
	if got := st["op"][0]; got != 100-50-10 {
		t.Errorf("op self time %d, want 40", got)
	}
	if got := st["a"][0]; got != 30 {
		t.Errorf("a self time %d, want 30", got)
	}
}

// Each workload, run briefly from a seed, reports every metric and
// fails no operation or check.
func TestWorkloadSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("profiles the full suite")
	}
	for _, name := range []string{"plan", "churn", "tablei"} {
		for _, traced := range []bool{false, true} {
			o := options{workload: name, seed: 3, seconds: 1, trace: traced, root: "..", data: t.TempDir()}
			out, err := workloads[name](context.Background(), o)
			if err != nil {
				t.Fatalf("%s (traced %v): %v", name, traced, err)
			}
			if out.attempted < 1 || out.failed != 0 {
				t.Fatalf("%s (traced %v): %d of %d operations failed", name, traced, out.failed, out.attempted)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			for _, d := range defs {
				v, ok := out.metrics[d.Name]
				if !traced && (!ok || v <= 0) {
					t.Errorf("%s: %s = %v, want a positive measurement", name, d.Name, v)
				}
			}
		}
	}
}
