package obs

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"
)

// get fetches a URL with a keep-alive-free client so the test leaves no
// idle-connection goroutines behind to confuse the leak check.
func get(t *testing.T, url string) (code int, contentType string, body []byte) {
	t.Helper()
	tr := &http.Transport{DisableKeepAlives: true}
	client := &http.Client{Transport: tr, Timeout: 5 * time.Second}
	defer tr.CloseIdleConnections()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err = io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read: %v", url, err)
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), body
}

// waitNoLeak asserts the goroutine count returns to the baseline.
func waitNoLeak(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > before {
		t.Errorf("goroutines leaked: %d before, %d after", before, now)
	}
}

// The -debug-addr server must serve the registry as Prometheus text on
// /metrics and /metrics/prom, and the pprof index, then shut down
// without leaking its serve/watch goroutines.
func TestDebugServerServesAndShutsDown(t *testing.T) {
	before := runtime.NumGoroutine()

	reg := NewRegistry()
	reg.Counter("experiment_groups_completed_total").Add(7)
	Enable(reg)
	defer Enable(nil)

	ds, err := StartDebugServer(context.Background(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + ds.Addr()

	want := "experiment_groups_completed_total_total 7\n"
	for _, path := range []string{"/metrics", "/metrics/prom"} {
		code, ct, body := get(t, base+path)
		if code != http.StatusOK || ct != PromContentType {
			t.Errorf("%s: status %d, content type %q", path, code, ct)
		}
		if !strings.Contains(string(body), want) {
			t.Errorf("%s lacks %q:\n%s", path, want, body)
		}
	}

	code, _, body := get(t, base+"/debug/pprof/")
	if code != http.StatusOK || !strings.Contains(string(body), "goroutine") {
		t.Errorf("/debug/pprof/ status = %d, body lacks profile index", code)
	}

	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ds.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	waitNoLeak(t, before)
}

// Cancelling the startup context must stop the server and release its
// goroutines — the command wiring relies on this for SIGINT cleanup.
func TestDebugServerContextCancel(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	ds, err := StartDebugServer(ctx, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ds.Addr()
	cancel()

	// The listener must actually close: poll until connects fail.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		tr := &http.Transport{DisableKeepAlives: true}
		client := &http.Client{Transport: tr, Timeout: time.Second}
		_, err := client.Get(fmt.Sprintf("http://%s/metrics", addr))
		tr.CloseIdleConnections()
		if err != nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	ds.Close() // waits for the serve goroutine
	waitNoLeak(t, before)
}

// A nil DebugServer (the not-enabled path in commands) is inert.
func TestDebugServerNil(t *testing.T) {
	ds, err := StartDebugServer(context.Background(), "")
	if err != nil {
		t.Fatalf("empty addr: %v", err)
	}
	if ds != nil {
		t.Fatal("empty addr must not start a server")
	}
	if ds.Addr() != "" {
		t.Error("nil server has an address")
	}
	if err := ds.Close(); err != nil {
		t.Errorf("nil Close = %v", err)
	}
}

// Starting on a bad address reports the error instead of panicking or
// leaking.
func TestDebugServerBadAddr(t *testing.T) {
	before := runtime.NumGoroutine()
	if _, err := StartDebugServer(context.Background(), "256.0.0.1:99999"); err == nil {
		t.Fatal("no error for invalid address")
	}
	waitNoLeak(t, before)
}
