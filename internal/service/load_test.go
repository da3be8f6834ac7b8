package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"partitionshare/internal/obs"
)

// TestLoadThroughputAndDrain is the acceptance load test: a worker pool
// hammers POST /v1/plan, the run must sustain >= 1000 requests/sec with
// the latency histogram (p99 source) landing in a parseable manifest,
// and a drain fired while the pool is still running must drop zero
// admitted requests — every response is either a 200 or a typed
// refusal, never a torn connection on an admitted solve.
func TestLoadThroughputAndDrain(t *testing.T) {
	if testing.Short() {
		t.Skip("load test")
	}
	reg := obs.NewRegistry()
	obs.Enable(reg)
	defer obs.Enable(nil)

	cfg := testConfig()
	cfg.MaxInflight = runtime.GOMAXPROCS(0)
	cfg.QueueDepth = 1024
	srv, svc := startTestServer(t, cfg)
	base := "http://" + srv.Addr()
	for i := uint64(1); i <= 4; i++ {
		doReq(t, "PUT", base+fmt.Sprintf("/v1/tenants/t%d", i), profileBytes(t, testProfile(t, i)))
	}
	waitForEpoch(t, svc, []string{"t1", "t2", "t3", "t4"})

	const (
		workers   = 16
		perWorker = 200
	)
	body := []byte(`{"tenants":["t1","t2","t3","t4"]}`)
	var ok, typed, broken atomic.Int64
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: workers}}
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				resp, err := client.Post(base+"/v1/plan", "application/json", bytes.NewReader(body))
				if err != nil {
					broken.Add(1)
					continue
				}
				switch resp.StatusCode {
				case http.StatusOK:
					ok.Add(1)
				case http.StatusTooManyRequests, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
					typed.Add(1)
				default:
					broken.Add(1)
				}
				// Drain before Close so the keep-alive connection is
				// reused; an unread body forces a fresh dial per request.
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	total := int64(workers * perWorker)
	if broken.Load() != 0 {
		t.Fatalf("%d requests failed untyped (network errors or 5xx)", broken.Load())
	}
	if ok.Load() == 0 {
		t.Fatal("no request succeeded")
	}
	rps := float64(total) / elapsed.Seconds()
	t.Logf("load: %d requests (%d ok, %d typed-shed) in %v = %.0f req/s",
		total, ok.Load(), typed.Load(), elapsed.Round(time.Millisecond), rps)
	if rps < 1000 {
		t.Fatalf("sustained only %.0f req/s, want >= 1000", rps)
	}

	// The latency histogram (p99's source of truth) lands in a manifest.
	manifestPath := filepath.Join(t.TempDir(), "load-manifest.json")
	m := obs.NewManifest("service-load-test", map[string]any{
		"workers": workers, "requests": total,
	}).Build(reg)
	if err := m.Write(manifestPath); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		Histograms map[string]obs.HistogramSummary `json:"histograms"`
	}
	if err := json.Unmarshal(data, &parsed); err != nil {
		t.Fatalf("manifest does not parse: %v", err)
	}
	h, found := parsed.Histograms["service.plan.latency_ns"]
	if !found {
		t.Fatalf("manifest lacks the plan latency histogram: %s", data)
	}
	if h.Count != ok.Load() {
		t.Fatalf("latency histogram counted %d solves, want %d", h.Count, ok.Load())
	}

	// Drain while a second wave is in flight: zero admitted requests
	// dropped, every response accounted for.
	var wave2Broken atomic.Int64
	var wg2 sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg2.Add(1)
		go func() {
			defer wg2.Done()
			for i := 0; i < 50; i++ {
				resp, err := client.Post(base+"/v1/plan", "application/json", bytes.NewReader(body))
				if err != nil {
					// Connection refused after the listener closed is a
					// pre-admission refusal, not a dropped request.
					continue
				}
				if resp.StatusCode/100 == 5 && resp.StatusCode != http.StatusServiceUnavailable &&
					resp.StatusCode != http.StatusGatewayTimeout {
					wave2Broken.Add(1)
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	time.Sleep(10 * time.Millisecond) // let the wave ramp
	if err := srv.Drain(10 * time.Second); err != nil {
		t.Fatalf("drain under load dropped in-flight requests: %v", err)
	}
	wg2.Wait()
	if wave2Broken.Load() != 0 {
		t.Fatalf("%d admitted requests got untyped failures during drain", wave2Broken.Load())
	}
}
