package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"partitionshare/internal/profileio"
	"partitionshare/internal/reuse"
	"partitionshare/internal/service"
	"partitionshare/internal/trace"
	"partitionshare/internal/workload"
)

// A tenantProfile is one program's hotlprof profile: its name, access
// rate, and the ASCII profile body a client uploads.
type tenantProfile struct {
	Name string
	Rate float64
	Body []byte
}

// profileSuite profiles the 16 workload programs at the default geometry
// the way cmd/hotlprof does — generate the trace, collect reuse over all
// CPUs, write the ASCII profile — one program after another.
func profileSuite(ctx context.Context, rec *recorder, parent int64) ([]tenantProfile, error) {
	cfg := workload.DefaultConfig()
	var out []tenantProfile
	for _, spec := range workload.Specs() {
		gen := spec.Build(uint32(cfg.CacheBlocks()), cfg.Seed)
		var tr trace.Trace
		rec.timed(parent, "trace.generate", func() { tr = trace.Generate(gen, cfg.TraceLen) })
		var rp reuse.Profile
		var err error
		rec.timed(parent, "reuse.collect", func() { rp, err = reuse.CollectParallel(ctx, tr, 0) })
		if err != nil {
			return nil, fmt.Errorf("profile %s: %w", spec.Name, err)
		}
		var buf bytes.Buffer
		rec.timed(parent, "profileio.write", func() {
			err = profileio.Write(&buf, profileio.Profile{Name: spec.Name, Rate: spec.Rate, Reuse: rp})
		})
		if err != nil {
			return nil, fmt.Errorf("profile %s: %w", spec.Name, err)
		}
		out = append(out, tenantProfile{Name: spec.Name, Rate: spec.Rate, Body: buf.Bytes()})
	}
	return out, nil
}

// A daemon is partitiond's service running in this process on a loopback
// listener, over a store (and audit log) in its own directory on disk.
type daemon struct {
	dir    string
	store  *service.Store
	svc    *service.Service
	srv    *service.Server
	cancel context.CancelFunc
	base   string
}

// startDaemon opens a fresh store under dir and serves it with
// partitiond's default configuration on an ephemeral loopback port.
func startDaemon(dir string) (*daemon, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	store, err := service.OpenStore(filepath.Join(dir, "store"), 0)
	if err != nil {
		return nil, err
	}
	svc, err := service.New(service.DefaultConfig(), store)
	if err != nil {
		store.Close()
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	srv, err := service.StartServer(ctx, svc, "127.0.0.1:0")
	if err != nil {
		cancel()
		svc.Close()
		store.Close()
		return nil, err
	}
	return &daemon{dir: dir, store: store, svc: svc, srv: srv, cancel: cancel, base: "http://" + srv.Addr()}, nil
}

// stop drains the server, stops the background loop, waits for it to
// exit, and removes the daemon's directory.
func (d *daemon) stop() error {
	err := d.srv.Drain(10 * time.Second)
	d.cancel()
	<-d.svc.Stopped()
	if cerr := d.svc.Close(); err == nil {
		err = cerr
	}
	if cerr := d.store.Close(); err == nil {
		err = cerr
	}
	if rerr := os.RemoveAll(d.dir); err == nil {
		err = rerr
	}
	return err
}

// register PUTs every profile as a tenant named after its program, in
// order, and waits until the served plan covers all of them and the
// background loop has gone quiet.
func (d *daemon) register(ctx context.Context, c *conn, profs []tenantProfile) error {
	for _, p := range profs {
		status, body, err := c.do(ctx, http.MethodPut, "/v1/tenants/"+p.Name, p.Body, "")
		if err != nil {
			return fmt.Errorf("register %s: %w", p.Name, err)
		}
		if status != http.StatusOK {
			return fmt.Errorf("register %s: status %d: %s", p.Name, status, body)
		}
	}
	return d.settle(ctx, len(profs))
}

// settle waits until the published plan has n tenants and no epoch has
// been published for 100 ms, so no churn from registration is left to
// coalesce with what follows.
func (d *daemon) settle(ctx context.Context, n int) error {
	deadline := time.Now().Add(60 * time.Second)
	last, since := int64(-1), time.Now()
	for time.Now().Before(deadline) {
		p, ok := d.svc.CurrentPlan()
		e := d.svc.Audit().LastEpoch()
		if e != last {
			last, since = e, time.Now()
		}
		if ok && len(p.Tenants) == n && !p.Degraded && time.Since(since) >= 100*time.Millisecond {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
	}
	return fmt.Errorf("daemon did not settle on %d tenants", n)
}

// A conn is one client connection to the daemon: an HTTP client whose
// transport keeps at most one connection open, and a reusable response
// buffer.
type conn struct {
	tr   *http.Transport
	c    *http.Client
	base string
	buf  bytes.Buffer
}

func newConn(base string) *conn {
	tr := &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	return &conn{tr: tr, c: &http.Client{Transport: tr, Timeout: 30 * time.Second}, base: base}
}

func (c *conn) close() { c.tr.CloseIdleConnections() }

// do sends one request and reads the whole response. The returned body
// is valid until the next call on c.
func (c *conn) do(ctx context.Context, method, path string, body []byte, traceparent string) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if traceparent != "" {
		req.Header.Set(service.TraceparentHeader, traceparent)
	}
	if body != nil && method == http.MethodPost {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, c.buf.Bytes(), nil
}

// getJSON sends a request and decodes a 200 response into v.
func (c *conn) getJSON(ctx context.Context, path string, v any) error {
	status, body, err := c.do(ctx, http.MethodGet, path, nil, "")
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %s", path, status, body)
	}
	return json.Unmarshal(body, v)
}

// daemonSetup is the plan and churn workloads' set-up: profile the
// suite, start a daemon, register every profile. It is what setup_s
// times.
func daemonSetup(ctx context.Context, dir string, rec *recorder) ([]tenantProfile, *daemon, error) {
	sp := rec.start(0, "setup")
	defer sp.end()
	profs, err := profileSuite(ctx, rec, sp.ID())
	if err != nil {
		return nil, nil, err
	}
	d, err := startDaemon(dir)
	if err != nil {
		return nil, nil, err
	}
	c := newConn(d.base)
	defer c.close()
	reg := rec.start(sp.ID(), "setup.register")
	err = d.register(ctx, c, profs)
	reg.end()
	if err != nil {
		d.stop()
		return nil, nil, err
	}
	return profs, d, nil
}
