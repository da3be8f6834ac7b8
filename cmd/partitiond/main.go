// Command partitiond is the cache partition-sharing daemon: it registers
// tenants by hotlprof profile upload, serves miss-ratio-curve queries and
// optimal partition plans for ad-hoc co-run groups, and re-optimizes the
// shared plan in the background as tenants churn — one solver-ladder
// solve per epoch, serving the last good plan (flagged degraded) when
// re-optimization fails.
//
// Usage:
//
//	partitiond [-addr HOST:PORT] [-store DIR] [-units N] ...
//
// API (JSON; errors use a typed {"error","detail"} envelope):
//
//	PUT    /v1/tenants/{name}       register/replace (body: hotlprof profile)
//	DELETE /v1/tenants/{name}       unregister
//	GET    /v1/tenants              list tenants
//	GET    /v1/tenants/{name}/mrc   miss-ratio curve (?units=N)
//	POST   /v1/plan                 plan for an ad-hoc group {"tenants":[...]}
//	GET    /v1/plan                 current background epoch plan
//	GET    /v1/plan/history         epoch audit records (?since_epoch=N)
//	GET    /v1/plan/changes         change feed: long-poll (?wait_ms) or SSE (?stream=sse)
//	GET    /healthz, /readyz        liveness / readiness
//
// Every served plan carries a provenance record (epoch, input digest,
// solver path, compute time, triggering cause and trace); every epoch
// transition is diffed, appended to a crash-safe audit log in the store
// directory, and fanned out to /v1/plan/changes subscribers without ever
// back-pressuring re-optimization (slow consumers see a gap marker).
// /debug/epochs renders the retained timeline human-readably.
//
// Robustness: requests run under deadlines (?deadline_ms, capped by
// -deadline) propagated into the DP solve; admission is bounded
// (-max-inflight, -queue-depth) with typed 429/503 shedding; the tenant
// store and the audit log are crash-safe (one atomic snapshot +
// CRC-framed journal engine, proven byte-identical across kill -9 in the
// chaos tests). SIGINT/SIGTERM
// trigger a graceful drain: in-flight requests finish (bounded by
// -drain-timeout), listeners stop, the run manifest is written, and the
// process exits 0 on a clean drain.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"partitionshare/internal/atomicio"
	"partitionshare/internal/obs"
	"partitionshare/internal/service"
)

// finish writes the manifest and closes the debug server exactly once;
// every exit path routes through it.
var finish = func() {}

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address (use :0 for an ephemeral port)")
	addrFile := flag.String("addr-file", "", "write the bound listen address to this file (atomic; for scripts wrapping -addr :0)")
	storeDir := flag.String("store", "partitiond-store", "tenant store directory (snapshot + journal)")
	units := flag.Int("units", 1024, "cache size in partition units")
	blocksPerUnit := flag.Int64("blocksperunit", 4, "cache blocks per partition unit")
	maxInflight := flag.Int("max-inflight", 8, "concurrent plan solves admitted")
	queueDepth := flag.Int("queue-depth", 64, "solve requests queued beyond -max-inflight before shedding 429s")
	deadline := flag.Duration("deadline", 2*time.Second, "default (and maximum) per-request deadline")
	reoptDeadline := flag.Duration("reopt-deadline", 10*time.Second, "deadline per background re-optimization attempt")
	retryMax := flag.Int("retry-max", 3, "background re-optimization retries before degraded mode")
	retryBase := flag.Duration("retry-base", 50*time.Millisecond, "base backoff between re-optimization retries (jittered, doubling)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "maximum wait for in-flight requests on shutdown")
	manifestPath := flag.String("manifest", "", "run-manifest path written at exit (empty disables)")
	debugAddr := flag.String("debug-addr", "", "serve live expvar metrics and pprof on this address")
	flightCap := flag.Int("flight-cap", obs.DefaultFlightCap, "request flight-recorder ring capacity for /debug/requests (0 disables)")
	tenantSeriesCap := flag.Int("tenant-series-cap", obs.DefaultChildSetCap, "live per-tenant metric series kept before folding into the 'other' bucket")
	feedBuffer := flag.Int("feed-buffer", 0, "pending epoch events buffered per /v1/plan/changes subscriber before drop-oldest (0 = default)")
	auditRetain := flag.Int("audit-retain", 0, "epoch audit records retained for /v1/plan/history (0 = default)")
	metricsInterval := flag.Duration("metrics-interval", 0, "registry sampling interval for /metrics/history (0 disables)")
	logLevel := flag.String("log-level", "info", "diagnostic log level: debug|info|warn|error")
	logJSON := flag.Bool("log-json", false, "emit the diagnostic log as JSON instead of text")
	flag.Parse()

	level, err := obs.ParseLogLevel(*logLevel)
	if err != nil {
		fatal(err)
	}
	obs.InitLogging(os.Stderr, level, *logJSON)
	obs.Enable(obs.NewRegistry())
	if *flightCap > 0 {
		obs.EnableFlightRecorder(obs.NewFlightRecorder(*flightCap))
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *metricsInterval > 0 {
		samp := obs.StartSampler(ctx, obs.Enabled(), *metricsInterval, 0)
		obs.EnableSampler(samp)
		defer samp.Stop()
	}

	manifest := obs.NewManifest("partitiond", map[string]any{
		"addr":            *addr,
		"store":           *storeDir,
		"units":           *units,
		"blocks_per_unit": *blocksPerUnit,
		"max_inflight":    *maxInflight,
		"queue_depth":     *queueDepth,
		"deadline_ms":     deadline.Milliseconds(),
		"retry_max":       *retryMax,
	})
	dbg, err := obs.StartDebugServer(ctx, *debugAddr)
	if err != nil {
		fatal(err)
	}
	var finishOnce sync.Once
	finish = func() {
		finishOnce.Do(func() {
			dbg.Close()
			if *manifestPath != "" {
				m := manifest.Build(obs.Enabled())
				if err := m.Write(*manifestPath); err != nil {
					obs.Logger().Error("manifest write", "err", err)
				} else {
					obs.Logger().Info("manifest written", "path", *manifestPath)
				}
			}
		})
	}
	defer finish()

	store, err := service.OpenStore(*storeDir, 0)
	if err != nil {
		fatal(err)
	}
	defer store.Close()
	svc, err := service.New(service.Config{
		Units:           *units,
		BlocksPerUnit:   *blocksPerUnit,
		MaxInflight:     *maxInflight,
		QueueDepth:      *queueDepth,
		DefaultDeadline: *deadline,
		ReoptDeadline:   *reoptDeadline,
		RetryMax:        *retryMax,
		RetryBase:       *retryBase,
		TenantSeriesCap: *tenantSeriesCap,
		FeedBuffer:      *feedBuffer,
		AuditRetain:     *auditRetain,
		Seed:            1,
	}, store)
	if err != nil {
		fatal(err)
	}
	defer svc.Close()
	if n := store.Len(); n > 0 {
		obs.Logger().Info("recovered tenants from store", "count", n, "dir", *storeDir)
	}

	srv, err := service.StartServer(ctx, svc, *addr)
	if err != nil {
		fatal(err)
	}
	if *addrFile != "" {
		err := atomicio.WriteFile(*addrFile, func(w io.Writer) error {
			_, err := fmt.Fprintln(w, srv.Addr())
			return err
		})
		if err != nil {
			fatal(err)
		}
	}

	// Serve until a signal cancels ctx or the listener fails.
	select {
	case <-ctx.Done():
		stop() // restore default signal handling: a second signal kills hard
		obs.Logger().Info("signal received; draining")
		if err := srv.Drain(*drainTimeout); err != nil {
			obs.Logger().Error("drain incomplete", "err", err)
			finish()
			os.Exit(1)
		}
		<-svc.Stopped()
		obs.Logger().Info("drained cleanly")
	case err, ok := <-srv.Err():
		if ok && err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	finish()
	if errors.Is(err, context.Canceled) {
		fmt.Fprintln(os.Stderr, "partitiond: interrupted")
		os.Exit(130)
	}
	fmt.Fprintln(os.Stderr, "partitiond:", err)
	os.Exit(1)
}
