// Package benchsuite defines the repository's key benchmarks as data:
// the one-time profiled fixtures plus a named list of benchmark
// functions runnable through testing.Benchmark. cmd/benchsnap runs the
// suite to record a PR's snapshot file, and cmd/benchdiff -run runs it
// to compare a live measurement against a stored baseline — both see
// the same definitions, so their numbers are comparable by name.
//
// The measured paths mirror the named benchmarks of bench_test.go: the
// per-group optimal-partition DP (pooled kernel, parallel layers, and
// the preserved scatter-form reference), the baseline-constrained DP,
// the DP granularity sweep, one full-trace profiling pass, the three
// reuse-collection scans (dense, map reference, sharded parallel), the
// full Table I regeneration, and the daemon's service paths: the
// admission-gated plan request, and the library's incremental DP
// against a cold solve of the same churn epoch.
package benchsuite

import (
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sync"
	"testing"

	"partitionshare/internal/experiment"
	"partitionshare/internal/mrc"
	"partitionshare/internal/obs"
	"partitionshare/internal/partition"
	"partitionshare/internal/profileio"
	"partitionshare/internal/reuse"
	"partitionshare/internal/service"
	"partitionshare/internal/trace"
	"partitionshare/internal/workload"
)

// A Bench is one named benchmark over the suite's shared fixtures.
type Bench struct {
	Name string
	Fn   func(b *testing.B)
}

// A Suite holds the profiled fixtures the benchmarks run against. Build
// one with New — profiling the workloads takes a few seconds and is
// deliberately done once, outside any measurement.
type Suite struct {
	progs      []workload.Program
	cfg        workload.Config
	full4      []workload.Program
	fullCfg    workload.Config
	groupPr    partition.Problem
	equalBase  partition.Allocation
	fullCurves []mrc.Curve
	spec       workload.Spec
	tr         trace.Trace

	// Service fixture: a daemon service over a throwaway store with four
	// registered tenants, for the plan-request-path benchmark. Close
	// releases it.
	storeDir string
	store    *service.Store
	svc      *service.Service
	tenants  []string
	// groupA/groupB are the tenant curves and a one-member-churned
	// variant, the two endpoints of the ReOptimize epoch benchmarks.
	groupA []mrc.Curve
	groupB []mrc.Curve
}

// New profiles the fixtures: the 16-program suite at test geometry (for
// the Table I sweep), the first four programs at full geometry (for the
// group DP), and one generated trace (for the reuse scans).
func New() (*Suite, error) {
	s := &Suite{cfg: workload.TestConfig(), fullCfg: workload.DefaultConfig()}
	var err error
	s.progs, err = workload.ProfileAll(nil, workload.Specs(), s.cfg)
	if err != nil {
		return nil, err
	}
	s.full4, err = workload.ProfileAll(nil, workload.Specs()[:4], s.fullCfg)
	if err != nil {
		return nil, err
	}
	s.fullCurves = make([]mrc.Curve, len(s.full4))
	for i, p := range s.full4 {
		s.fullCurves[i] = p.Curve
	}
	s.groupPr = partition.Problem{Curves: s.fullCurves, Units: 1024}
	s.equalBase = partition.EqualAllocation(len(s.fullCurves), 1024)
	s.spec = workload.Specs()[0]
	gen := s.spec.Build(uint32(s.cfg.CacheBlocks()), s.cfg.Seed)
	s.tr = trace.Generate(gen, s.cfg.TraceLen)

	// The service fixture: four Zipf tenants registered through the real
	// store, so ServicePlanRequest measures the daemon's full plan path
	// (admission, curve gather, cancellable DP) at default geometry.
	s.storeDir, err = os.MkdirTemp("", "benchsuite-store-")
	if err != nil {
		return nil, err
	}
	s.store, err = service.OpenStore(s.storeDir, 0)
	if err != nil {
		return nil, err
	}
	s.svc, err = service.New(service.Config{Units: 1024, BlocksPerUnit: 4, Seed: 1}, s.store)
	if err != nil {
		return nil, err
	}
	for i := uint64(1); i <= 4; i++ {
		name := fmt.Sprintf("t%d", i)
		p := profileio.Profile{
			Name:  name,
			Rate:  1.0,
			Reuse: reuse.Collect(trace.Generate(trace.NewZipf(512, 0.7, i), 4096)),
		}
		if err := s.svc.Register(nil, name, p); err != nil {
			return nil, err
		}
		s.tenants = append(s.tenants, name)
	}
	s.groupA = make([]mrc.Curve, len(s.tenants))
	for i, name := range s.tenants {
		if s.groupA[i], err = s.svc.CurveFor(name, 1024); err != nil {
			return nil, err
		}
	}
	// groupB churns the last member: same curve data under a different
	// identity, so a rebase keeps the three-layer prefix and re-pushes
	// exactly one layer.
	s.groupB = append(append([]mrc.Curve{}, s.groupA[:len(s.groupA)-1]...), s.groupA[0])
	s.groupB[len(s.groupB)-1].Name = "t1-churned"
	return s, nil
}

// Close releases the service fixture's store and its throwaway
// directory.
func (s *Suite) Close() {
	if s.svc != nil {
		s.svc.Close()
	}
	if s.store != nil {
		s.store.Close()
	}
	if s.storeDir != "" {
		os.RemoveAll(s.storeDir)
	}
}

// largeCurves resamples the four full-geometry footprints at one block
// per unit over a units-block modeled cache, duplicating the program set
// when npr exceeds it.
func (s *Suite) largeCurves(units, npr int) []mrc.Curve {
	curves := make([]mrc.Curve, npr)
	for i := range curves {
		p := s.full4[i%len(s.full4)]
		name := p.Name
		if i >= len(s.full4) {
			name = fmt.Sprintf("%s#%d", p.Name, i/len(s.full4)+1)
		}
		curves[i] = mrc.FromFootprint(name, p.Fp, units, 1, p.Rate)
	}
	return curves
}

// spanBenchPlan labels the root span the traced plan benchmark opens
// around each request, standing in for the middleware's service.req
// root (the benchmark measures the service layer without HTTP).
const spanBenchPlan = "benchsuite.plan_request"

// ServicePlanBench returns the daemon's plan-request benchmark —
// admission, curve gather, and the cancellable DP. With traced=true
// each iteration additionally carries the request-telemetry envelope
// the HTTP middleware applies: a fresh W3C trace context and the same
// obs.StartRequest root, whose End files one flight-recorder entry.
// Run it under both global telemetry states to measure the
// observability tax on the full request path (the ObsOverheadService
// gate in cmd/benchsnap).
func (s *Suite) ServicePlanBench(traced bool) func(b *testing.B) {
	return func(b *testing.B) {
		base := context.Background()
		for i := 0; i < b.N; i++ {
			if !traced {
				if _, err := s.svc.PlanFor(base, s.tenants, 1024); err != nil {
					b.Fatal(err)
				}
				continue
			}
			tc, _ := obs.EnsureTraceContext("")
			ctx, root := obs.StartRequest(base, spanBenchPlan, "benchsuite", tc)
			root.SetRoute("", "plan_bench")
			_, err := s.svc.PlanFor(ctx, s.tenants, 1024)
			root.SetStatus(200)
			root.End() // files the flight record, as the middleware's root does
			if err != nil {
				b.Fatal(err)
			}
		}
	}
}

// OptimalBench returns the per-group optimal-partition DP benchmark —
// the subject of the ObsOverhead off/on gate, exposed separately so the
// gate can run it under both registry states.
func (s *Suite) OptimalBench() func(b *testing.B) {
	return func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := partition.Optimize(s.groupPr); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// Benches returns the full named benchmark list in its canonical order.
func (s *Suite) Benches() []Bench {
	benches := []Bench{
		{"OptimalPartitionGroup", s.OptimalBench()},
		{"OptimalPartitionGroupParallel", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := partition.OptimizeParallel(nil, s.groupPr, 0); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"OptimalPartitionGroupReference", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := partition.ReferenceOptimize(s.groupPr); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"BaselineOptimizationGroup", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := partition.OptimizeWithBaseline(s.fullCurves, 1024, s.equalBase); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"ProfileProgram", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := workload.Profile(s.spec, s.cfg); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"CollectReuse/dense", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				reuse.Collect(s.tr)
			}
		}},
		{"CollectReuse/reference", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				reuse.CollectReference(s.tr)
			}
		}},
		{"CollectReuse/parallel", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := reuse.CollectParallel(nil, s.tr, 0); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"TableI", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := experiment.Run(nil, s.progs, 4, s.cfg.Units, s.cfg.BlocksPerUnit, experiment.RunOpts{})
				if err != nil {
					b.Fatal(err)
				}
				experiment.TableI(res)
			}
		}},
	}
	// Large-C group solves (ROADMAP item 2): the same four profiled
	// footprints resampled at one block per unit, modeling much larger
	// caches at fine granularity, plus an npr=8 variant that duplicates
	// the program set. Auto solver — these measure the refinement rung;
	// the matching forced-exact entry pins down the speedup factor.
	for _, lg := range []struct{ units, npr int }{{4096, 4}, {16384, 4}, {16384, 8}} {
		pr := partition.Problem{Curves: s.largeCurves(lg.units, lg.npr), Units: lg.units}
		name := fmt.Sprintf("OptimalPartitionGroup/units=%d", lg.units)
		if lg.npr != len(s.full4) {
			name = fmt.Sprintf("%s/npr=%d", name, lg.npr)
		}
		benches = append(benches, Bench{
			Name: name,
			Fn: func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := partition.Optimize(pr); err != nil {
						b.Fatal(err)
					}
				}
			},
		})
	}
	prExact := partition.Problem{
		Curves: s.largeCurves(4096, 4),
		Units:  4096,
		Solver: partition.SolverExact,
	}
	benches = append(benches, Bench{
		Name: "OptimalPartitionExact/units=4096",
		Fn: func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := partition.Optimize(prExact); err != nil {
					b.Fatal(err)
				}
			}
		},
	})
	for _, units := range []int{128, 256, 512, 1024, 2048} {
		blocksPerUnit := s.fullCfg.CacheBlocks() / int64(units)
		curves := make([]mrc.Curve, len(s.full4))
		for i, p := range s.full4 {
			curves[i] = mrc.FromFootprint(p.Name, p.Fp, units, blocksPerUnit, p.Rate)
		}
		pr := partition.Problem{Curves: curves, Units: units}
		benches = append(benches, Bench{
			Name: fmt.Sprintf("DPGranularity/units=%d", units),
			Fn: func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := partition.Optimize(pr); err != nil {
						b.Fatal(err)
					}
				}
			},
		})
	}

	// Service paths (PR 7). ServicePlanRequest is the daemon's plan
	// request end to end minus HTTP: admission, curve gather, and the
	// cancellable DP under the default deadline. The ReOptimize pair
	// measures one churn epoch — the group's last member swapped: warm
	// rebases the library's partition.Incremental onto the shared
	// three-layer prefix and pushes one layer; cold is the solver-ladder
	// solve the daemon's background loop runs. The pair is the evidence
	// for keeping or deleting Incremental; the service no longer uses it.
	benches = append(benches, Bench{
		Name: "ServicePlanRequest",
		Fn:   s.ServicePlanBench(false),
	})
	// The same path with the full request-telemetry envelope and every
	// telemetry global live, so the traced/untraced pair is trackable
	// across snapshots by name (the gated ratio lives in benchsnap's
	// ObsOverheadService entries).
	benches = append(benches, Bench{
		Name: "ServiceTracedPlanRequest",
		Fn: func(b *testing.B) {
			prevReg, prevTr, prevFr := obs.Enabled(), obs.ActiveTracer(), obs.ActiveFlightRecorder()
			obs.Enable(obs.NewRegistry())
			obs.EnableTracer(obs.NewTracer(0, nil))
			obs.EnableFlightRecorder(obs.NewFlightRecorder(0))
			defer func() {
				obs.Enable(prevReg)
				obs.EnableTracer(prevTr)
				obs.EnableFlightRecorder(prevFr)
			}()
			s.ServicePlanBench(true)(b)
		},
	})
	benches = append(benches, Bench{
		Name: "ReOptimize/warm",
		Fn: func(b *testing.B) {
			inc := partition.NewIncremental(1024)
			if _, err := inc.Rebase(nil, s.groupA); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				target := s.groupA
				if i%2 == 0 {
					target = s.groupB
				}
				if _, err := inc.Rebase(nil, target); err != nil {
					b.Fatal(err)
				}
				if _, err := inc.Solve(); err != nil {
					b.Fatal(err)
				}
			}
		},
	})
	benches = append(benches, Bench{
		Name: "ReOptimize/cold",
		Fn: func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				target := s.groupA
				if i%2 == 0 {
					target = s.groupB
				}
				pr := partition.Problem{Curves: target, Units: 1024}
				if _, err := partition.OptimizeParallel(nil, pr, 1); err != nil {
					b.Fatal(err)
				}
			}
		},
	})
	// Plan-lifecycle paths (PR 10). PlanDiff is the per-epoch diff the
	// publisher computes synchronously before every plan swap, at a
	// larger-than-typical group size so the gate bounds the worst case.
	// ChangeFeedFanout is one epoch publication fanned out to eight live
	// subscribers — the other synchronous cost the feed adds to the
	// re-optimization loop (drop-oldest, so it must stay flat even when
	// subscribers lag).
	benches = append(benches, Bench{
		Name: "PlanDiff",
		Fn: func(b *testing.B) {
			const n = 64
			prev := &service.Plan{Epoch: 1, Tenants: make([]string, n), Alloc: make([]int, n)}
			next := &service.Plan{Epoch: 2, Tenants: make([]string, n), Alloc: make([]int, n)}
			for i := 0; i < n; i++ {
				prev.Tenants[i] = fmt.Sprintf("tenant-%03d", i)
				next.Tenants[i] = prev.Tenants[i]
				prev.Alloc[i] = 16
				next.Alloc[i] = 16 + (i%5 - 2) // most tenants move a little
			}
			next.Tenants[n-1] = "tenant-joined" // plus one join/leave pair
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d := service.ComputePlanDiff(prev, next)
				if d.UnitsMoved == 0 {
					b.Fatal("diff collapsed")
				}
			}
		},
	})
	benches = append(benches, Bench{
		Name: "ChangeFeedFanout",
		Fn:   changeFeedFanoutBench,
	})
	return benches
}

// changeFeedFanoutBench publishes b.N epoch records to a feed with
// eight live draining subscribers. The subscriber goroutines run for
// the benchmark's duration only: Close wakes every Next with
// ErrFeedClosed and wg joins them before the function returns.
func changeFeedFanoutBench(b *testing.B) {
	feed := service.NewChangeFeed(0)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		sub := feed.Subscribe()
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer sub.Close()
			for {
				if _, _, err := sub.Next(context.Background()); err != nil {
					return
				}
			}
		}()
	}
	rec := service.EpochRecord{Provenance: service.PlanProvenance{Cause: service.CauseChurn}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.Provenance.Epoch = int64(i + 1)
		feed.Publish(rec)
	}
	b.StopTimer()
	feed.Close()
	wg.Wait()
}

// VetkitSelfRunBench measures one full vetkit pass over the repository
// (go run ./cmd/vetkit ./...), the wall time CI pays for the tier-1
// static-analysis gate. It is not part of Benches(): it shells out to
// the go toolchain and needs the repository root as working directory,
// so only cmd/benchsnap records it (as "VetkitSelfRun").
func VetkitSelfRunBench() func(b *testing.B) {
	return func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cmd := exec.Command("go", "run", "./cmd/vetkit", "./...")
			cmd.Stdout, cmd.Stderr = io.Discard, io.Discard
			if err := cmd.Run(); err != nil {
				b.Fatalf("vetkit self-run: %v", err)
			}
		}
	}
}

// Run measures every benchmark once and returns name → ns/op. progress,
// when non-nil, is called after each measurement.
func Run(benches []Bench, progress func(name string, nsPerOp int64, iters int)) map[string]int64 {
	out := make(map[string]int64, len(benches))
	for _, bm := range benches {
		r := testing.Benchmark(bm.Fn)
		out[bm.Name] = r.NsPerOp()
		if progress != nil {
			progress(bm.Name, r.NsPerOp(), r.N)
		}
	}
	return out
}

// BestOf runs the benchmark n times and returns the fastest ns/op — the
// standard defense against one-off scheduling noise in a pass/fail gate.
func BestOf(n int, fn func(b *testing.B)) int64 {
	best := int64(0)
	for i := 0; i < n; i++ {
		r := testing.Benchmark(fn)
		if ns := r.NsPerOp(); best == 0 || ns < best {
			best = ns
		}
	}
	return best
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
