// Command obsgate is the observability-overhead gate: it measures two
// hot paths with telemetry off and on, and exits non-zero when turning
// telemetry on slows either one by more than limitPct.
//
// The two subjects:
//
//   - ObsOverhead: the per-group optimal-partition DP (partition.Optimize
//     over the first four workload programs at full 1024-unit geometry)
//     with the metrics registry disabled vs enabled;
//   - ObsOverheadService: the daemon's plan-request path (Service.PlanFor
//     over four Zipf tenants in a throwaway store) bare vs under an
//     obs.StartRequest root with the registry, tracer and flight
//     recorder all live.
//
// Each pair runs interleaved, best of three (BestOfPaired). The command
// takes no flags, prints the four ns/op numbers and writes no file:
//
//	go run ./cmd/obsgate
//
// It is an on-demand check, not a CI step: timing noise on shared CI
// hardware is wider than the limit.
package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"testing"

	"partitionshare/internal/obs"
	"partitionshare/internal/partition"
	"partitionshare/internal/profileio"
	"partitionshare/internal/reuse"
	"partitionshare/internal/service"
	"partitionshare/internal/trace"
	"partitionshare/internal/workload"
)

// limitPct is the acceptance ceiling on the slowdown telemetry may add
// to either subject.
const limitPct = 3.0

// spanPlanRequest labels the root span the traced plan subject opens
// around each request, standing in for the middleware's request root
// (the subject measures the service layer without HTTP).
const spanPlanRequest = "obsgate.plan_request"

// verdict returns the overhead of on relative to off in percent, and
// whether it is within limitPct.
func verdict(offNs, onNs int64) (pct float64, ok bool) {
	pct = 100 * (float64(onNs) - float64(offNs)) / float64(offNs)
	return pct, pct <= limitPct
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "obsgate:", err)
		os.Exit(1)
	}
}

func run() error {
	obs.Logger().Info("profiling workloads (one-time setup)")
	full4, err := workload.ProfileAll(context.Background(), workload.Specs()[:4], workload.DefaultConfig())
	if err != nil {
		return err
	}
	pr := partition.Problem{Units: 1024}
	for _, p := range full4 {
		pr.Curves = append(pr.Curves, p.Curve)
	}
	solve := func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := partition.Optimize(pr); err != nil {
				b.Fatal(err)
			}
		}
	}

	dir, err := os.MkdirTemp("", "obsgate-store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	store, err := service.OpenStore(dir, 0)
	if err != nil {
		return err
	}
	defer store.Close()
	svc, tenants, err := planFixture(store)
	if err != nil {
		return err
	}
	defer svc.Close()

	offNs, onNs := BestOfPaired(3,
		func() { obs.Enable(nil) }, solve,
		func() { obs.Enable(obs.NewRegistry()) }, solve)
	telemetryOff := func() {
		obs.Enable(nil)
		obs.EnableTracer(nil)
		obs.EnableFlightRecorder(nil)
	}
	telemetryOn := func() {
		obs.Enable(obs.NewRegistry())
		obs.EnableTracer(obs.NewTracer(0, nil))
		obs.EnableFlightRecorder(obs.NewFlightRecorder(0))
	}
	svcOffNs, svcOnNs := BestOfPaired(3,
		telemetryOff, planBench(svc, tenants, false),
		telemetryOn, planBench(svc, tenants, true))

	return errors.Join(
		report("ObsOverhead", offNs, onNs),
		report("ObsOverheadService", svcOffNs, svcOnNs))
}

// report prints one subject's off/on pair and returns an error when its
// overhead is past the limit.
func report(name string, offNs, onNs int64) error {
	pct, ok := verdict(offNs, onNs)
	fmt.Printf("%-22s %12d ns/op\n", name+"/off", offNs)
	fmt.Printf("%-22s %12d ns/op  (%+.2f%% vs off, limit %.1f%%)\n", name+"/on", onNs, pct, limitPct)
	if !ok {
		return fmt.Errorf("%s overhead %.2f%% exceeds the %.1f%% limit (off=%d ns/op, on=%d ns/op)",
			name, pct, limitPct, offNs, onNs)
	}
	return nil
}

// planFixture registers four Zipf tenants through the real store, so
// the plan subject measures the daemon's full plan path (admission,
// curve gather, cancellable DP) at default geometry.
func planFixture(store *service.Store) (*service.Service, []string, error) {
	svc, err := service.New(service.Config{Units: 1024, BlocksPerUnit: 4, Seed: 1}, store)
	if err != nil {
		return nil, nil, err
	}
	var tenants []string
	for i := uint64(1); i <= 4; i++ {
		name := fmt.Sprintf("t%d", i)
		p := profileio.Profile{
			Name:  name,
			Rate:  1.0,
			Reuse: reuse.Collect(trace.Generate(trace.NewZipf(512, 0.7, i), 4096)),
		}
		if err := svc.Register(context.Background(), name, p); err != nil {
			svc.Close()
			return nil, nil, err
		}
		tenants = append(tenants, name)
	}
	return svc, tenants, nil
}

// planBench returns the plan-request subject. With traced=true each
// iteration also carries the request-telemetry envelope the HTTP
// middleware applies: a fresh W3C trace context and an obs.StartRequest
// root, whose End files one flight-recorder entry.
func planBench(svc *service.Service, tenants []string, traced bool) func(b *testing.B) {
	return func(b *testing.B) {
		base := context.Background()
		for i := 0; i < b.N; i++ {
			if !traced {
				if _, err := svc.PlanFor(base, tenants, 1024); err != nil {
					b.Fatal(err)
				}
				continue
			}
			tc, _ := obs.EnsureTraceContext("")
			ctx, root := obs.StartRequest(base, spanPlanRequest, "obsgate", tc)
			root.SetRoute("", "plan_bench")
			_, err := svc.PlanFor(ctx, tenants, 1024)
			root.SetStatus(200)
			root.End() // files the flight record, as the middleware's root does
			if err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BestOfPaired interleaves n rounds of two benchmark variants —
// a, b, a, b, … — and returns each variant's fastest ns/op. For an
// overhead gate comparing the two, interleaving matters: sequential
// best-of blocks sample different machine phases, and on a shared box
// the drift between phases can exceed the gate's threshold by itself.
// setupA/setupB run before every round of their variant (installing or
// clearing telemetry globals); the last setup run is setupA's, so
// callers that clear state in setupA end clean.
func BestOfPaired(n int, setupA func(), a func(b *testing.B), setupB func(), b func(bb *testing.B)) (bestA, bestB int64) {
	for i := 0; i < n; i++ {
		setupA()
		if ns := testing.Benchmark(a).NsPerOp(); bestA == 0 || ns < bestA {
			bestA = ns
		}
		setupB()
		if ns := testing.Benchmark(b).NsPerOp(); bestB == 0 || ns < bestB {
			bestB = ns
		}
	}
	setupA()
	return bestA, bestB
}
