package service

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"partitionshare/internal/mrc"
	"partitionshare/internal/obs"
	"partitionshare/internal/profileio"
	"partitionshare/internal/reuse"
	"partitionshare/internal/trace"
)

// benchTenants registers four Zipf tenants on a service at the daemon's
// default geometry (1024 units) and returns their names. Their working
// sets span the whole cache, so the group solves on the refinement
// rung, as the daemon's groups do.
func benchTenants(b *testing.B, svc *Service) []string {
	b.Helper()
	var names []string
	for i := uint64(1); i <= 4; i++ {
		name := fmt.Sprintf("t%d", i)
		g := trace.NewZipf(8192, 0.5+0.1*float64(i), i)
		p := profileio.Profile{Name: name, Rate: 1, Reuse: reuse.Collect(trace.Generate(g, 1<<16))}
		if err := svc.Register(context.Background(), name, p); err != nil {
			b.Fatal(err)
		}
		names = append(names, name)
	}
	return names
}

func newBenchService(b *testing.B) *Service {
	b.Helper()
	store, err := OpenStore(b.TempDir(), 0)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { store.Close() })
	svc, err := New(DefaultConfig(), store)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { svc.Close() })
	return svc
}

// BenchmarkPlanPost measures one ad-hoc POST /v1/plan round trip for a
// four-tenant group at 1024 units over a loopback httptest server:
// decode, admission, curve gather, solve, provenance and encode. "refine"
// uses benchTenants, whose group solves on the refinement rung; the
// service tests' testProfile tenants have working sets far below the
// cache, refinement declines them, and "exact-fallback" times that
// group on the exact rung. Telemetry is on as in cmd/partitiond: a
// registry and a request flight recorder, so each request pays for the
// metrics and flight record the daemon keeps.
func BenchmarkPlanPost(b *testing.B) {
	prevReg, prevFlight := obs.Enabled(), obs.ActiveFlightRecorder()
	obs.Enable(obs.NewRegistry())
	obs.EnableFlightRecorder(obs.NewFlightRecorder(obs.DefaultFlightCap))
	defer func() {
		obs.Enable(prevReg)
		obs.EnableFlightRecorder(prevFlight)
	}()
	b.Run("refine", func(b *testing.B) {
		svc := newBenchService(b)
		benchPlanPost(b, svc, benchTenants(b, svc), "refine")
	})
	b.Run("exact-fallback", func(b *testing.B) {
		svc := newBenchService(b)
		var names []string
		for seed := uint64(1); seed <= 4; seed++ {
			p := testProfile(b, seed)
			if err := svc.Register(context.Background(), p.Name, p); err != nil {
				b.Fatal(err)
			}
			names = append(names, p.Name)
		}
		benchPlanPost(b, svc, names, "refine-fallback+exact")
	})
}

// benchPlanPost checks that the group solves on wantPath, then times
// POST /v1/plan for it.
func benchPlanPost(b *testing.B, svc *Service, names []string, wantPath string) {
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	if p, err := svc.PlanFor(context.Background(), names, 0); err != nil || p.SolverPath != wantPath {
		b.Fatalf("bench group solves on %q (%v), want %q", p.SolverPath, err, wantPath)
	}
	body := []byte(fmt.Sprintf(`{"tenants":["%s","%s","%s","%s"]}`, names[0], names[1], names[2], names[3]))
	client := ts.Client()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := client.Post(ts.URL+"/v1/plan", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			b.Fatalf("POST /v1/plan = %d (%v)", resp.StatusCode, err)
		}
	}
}

// BenchmarkInputDigest measures a four-tenant input digest at 1024
// units: "exported" hashes every curve, as InputDigest does; "cached"
// combines the tenant digests the service keeps, as a served plan does.
func BenchmarkInputDigest(b *testing.B) {
	svc := newBenchService(b)
	names := benchTenants(b, svc)
	curves := make([]mrc.Curve, len(names))
	digests := make([]tenantDigest, len(names))
	for i, n := range names {
		in, err := svc.inputFor(n, svc.cfg.Units)
		if err != nil {
			b.Fatal(err)
		}
		curves[i], digests[i] = in.curve, in.digest
	}
	b.Run("exported", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			InputDigest(names, curves, svc.cfg.Units)
		}
	})
	b.Run("cached", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			inputDigest(svc.cfg.Units, digests)
		}
	})
}
