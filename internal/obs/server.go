package obs

import (
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"
)

// ServePrometheus writes the enabled registry's snapshot in Prometheus
// text exposition format. Shared by the debug server and the daemon's
// API mux, so both listeners expose an identical scrape surface.
func ServePrometheus(w http.ResponseWriter) {
	w.Header().Set("Content-Type", PromContentType)
	// The status line is out after the first write; an error mid-stream
	// means the scraper went away, and there is nothing left to signal.
	_ = WritePrometheus(w, Enabled().Snapshot())
}

// ServeFlightRecorder writes the active flight recorder's snapshot as
// indented JSON (an empty snapshot when recording is disabled). Shared
// by the debug server and the daemon's API mux.
func ServeFlightRecorder(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(ActiveFlightRecorder().Snapshot())
}

// A DebugServer is the optional -debug-addr HTTP listener: it serves
// the registry in Prometheus text at /metrics (and at /metrics/prom,
// the same body), the request flight recorder at /debug/requests, and
// the full net/http/pprof suite under /debug/pprof/. Close is
// idempotent and waits for the serve goroutine to exit, so tests can
// assert no goroutine leaks.
type DebugServer struct {
	srv    *http.Server
	lis    net.Listener
	done   chan struct{} // closed when the serve goroutine returns
	cancel context.CancelFunc
	once   sync.Once
}

// StartDebugServer listens on addr (e.g. "localhost:6060"; ":0" picks a
// free port) and serves /metrics and pprof until Close is called or
// ctx is cancelled. The returned server's Addr reports the
// bound address. An empty addr — the unset flag — returns (nil, nil),
// and every method on a nil *DebugServer is a no-op, so callers pass
// their -debug-addr value through unconditionally. Mounting pprof here,
// on a private mux, keeps the profiling endpoints off
// http.DefaultServeMux.
func StartDebugServer(ctx context.Context, addr string) (*DebugServer, error) {
	if addr == "" {
		return nil, nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}

	mux := http.NewServeMux()
	metrics := func(w http.ResponseWriter, _ *http.Request) { ServePrometheus(w) }
	mux.HandleFunc("/metrics", metrics)
	mux.HandleFunc("/metrics/prom", metrics)
	mux.HandleFunc("/debug/requests", func(w http.ResponseWriter, _ *http.Request) {
		ServeFlightRecorder(w)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	watchCtx, cancel := context.WithCancel(ctx)
	ds := &DebugServer{
		srv:    &http.Server{Handler: mux},
		lis:    lis,
		done:   make(chan struct{}),
		cancel: cancel,
	}
	go func() {
		defer close(ds.done)
		// Serve returns http.ErrServerClosed on Shutdown/Close; any other
		// error means the listener died underneath us — log and carry on,
		// the debug server is never load-bearing.
		if err := ds.srv.Serve(lis); err != nil && !errors.Is(err, http.ErrServerClosed) {
			Logger().Warn("debug server stopped", "addr", lis.Addr().String(), "err", err)
		}
	}()
	go func() {
		<-watchCtx.Done()
		ds.shutdown()
	}()
	Logger().Info("debug server listening",
		"addr", lis.Addr().String(),
		"endpoints", "/metrics /metrics/prom /debug/requests /debug/pprof/")
	return ds, nil
}

// Addr returns the bound listen address (useful with ":0").
func (ds *DebugServer) Addr() string {
	if ds == nil {
		return ""
	}
	return ds.lis.Addr().String()
}

func (ds *DebugServer) shutdown() {
	ds.once.Do(func() {
		// Bounded graceful shutdown: in-flight scrapes get a moment to
		// finish, then the server closes hard.
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		if err := ds.srv.Shutdown(ctx); err != nil {
			ds.srv.Close()
		}
	})
}

// Close stops the server and waits for its goroutines to exit. Safe to
// call multiple times and on a nil receiver.
func (ds *DebugServer) Close() error {
	if ds == nil {
		return nil
	}
	ds.cancel()
	ds.shutdown()
	<-ds.done
	return nil
}
