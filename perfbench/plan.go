package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"time"

	"partitionshare/internal/experiment"
	"partitionshare/internal/mrc"
	"partitionshare/internal/obs"
	"partitionshare/internal/partition"
	"partitionshare/internal/profileio"
	"partitionshare/internal/service"
)

// The plan workload: ad-hoc POST /v1/plan for 4-tenant groups drawn from
// the C(16,4) = 1820 groups of the registered suite, at the default
// 1024 units. A closed loop with one caller per CPU measures throughput;
// an open loop at a fixed rate, well under it, measures latency.
const (
	planGroupSize = 4
	planOpenRate  = 150.0 // requests per second in the open-loop phase
	planOpenShare = 0.6   // share of the measured time in the open-loop phase
	planCheckEach = 16    // every n-th open-loop response is checked against the reference
	planWarmup    = 500 * time.Millisecond
	planWindow    = 500 * time.Millisecond // closed-loop rate window; ops_per_s is the median window
)

// A daemonSetupResult is one repetition of the daemon workloads' set-up.
type daemonSetupResult struct {
	profs []tenantProfile
	d     *daemon
}

func sameProfiles(a, b daemonSetupResult) bool {
	return slices.EqualFunc(a.profs, b.profs, func(x, y tenantProfile) bool {
		return x.Name == y.Name && x.Rate == y.Rate && bytes.Equal(x.Body, y.Body)
	})
}

// setupDaemonWorkload runs the profiling-plus-registration set-up
// setupReps times (once on a traced run) and returns the last daemon
// with the median set-up time.
func setupDaemonWorkload(ctx context.Context, o options, rec *recorder) (daemonSetupResult, float64, error) {
	reps := setupReps
	if o.trace {
		reps = 1
	}
	return medianSetup(reps, func(rep int) (daemonSetupResult, error) {
		profs, d, err := daemonSetup(ctx, filepath.Join(o.data, fmt.Sprintf("daemon-%d", rep)), rec)
		return daemonSetupResult{profs, d}, err
	}, sameProfiles, func(r daemonSetupResult) {
		if r.d != nil {
			r.d.stop()
		}
	})
}

// planInputs are the generated plan requests: every group's tenant names
// and request body, the closed loop's group sequence, and the open
// loop's schedule.
type planInputs struct {
	groups [][]string
	bodies [][]byte
	seq    []int
}

func makePlanInputs(o options, profs []tenantProfile) (planInputs, error) {
	combos, err := experiment.Combinations(len(profs), planGroupSize)
	if err != nil {
		return planInputs{}, err
	}
	var in planInputs
	for _, c := range combos {
		names := make([]string, len(c))
		for i, m := range c {
			names[i] = profs[m].Name
		}
		body, err := json.Marshal(map[string]any{"tenants": names})
		if err != nil {
			return planInputs{}, err
		}
		in.groups = append(in.groups, names)
		in.bodies = append(in.bodies, body)
	}
	rng := o.rng(1)
	in.seq = make([]int, 1<<15)
	for i := range in.seq {
		in.seq[i] = rng.IntN(len(in.groups))
	}
	return in, nil
}

// planPhase is one measurement of the plan workload: a closed loop, then
// an open loop for planOpenShare of the phase.
type planPhase struct {
	rps                  float64 // median over the closed loop's windows
	closedOK, closedFail int64
	sched                []arrival
	samples              []sample
	rtt                  []time.Duration // send to response, per open-loop arrival
	checked              map[int][]byte  // sampled open-loop responses by arrival index
	rtStart, rtEnd       runtimeSnap
}

func (p planPhase) latencies() []float64 {
	var out []float64
	for _, s := range p.samples {
		if s.OK {
			out = append(out, ms(s.Latency))
		}
	}
	return out
}

func (p planPhase) ops() int64 { return p.closedOK + p.closedFail + int64(len(p.samples)) }

func (p planPhase) failures() int64 {
	n := p.closedFail
	for _, s := range p.samples {
		if !s.OK {
			n++
		}
	}
	return n
}

// measurePlan runs one plan phase of length dur; rng draws the open
// loop's schedule.
func measurePlan(ctx context.Context, d *daemon, in planInputs, rng *rand.Rand, dur time.Duration, rec *recorder) planPhase {
	open := time.Duration(planOpenShare * float64(dur))
	closed := dur - open
	sched := poissonSchedule(rng, planOpenRate, open, len(in.groups))
	workers := runtime.GOMAXPROCS(0)
	conns := make([]*conn, workers)
	for i := range conns {
		conns[i] = newConn(d.base)
		defer conns[i].close()
	}
	post := func(w, group int) (int, []byte, error) {
		return conns[w].do(ctx, http.MethodPost, "/v1/plan", in.bodies[group], "")
	}
	var seq atomic.Int64
	closedCall := func(w int) bool {
		status, _, err := post(w, in.seq[int(seq.Add(1))%len(in.seq)])
		return err == nil && status == http.StatusOK
	}
	// Warm-up: connections open, caches fill. Not measured.
	closedLoop(ctx, planWarmup, workers, closedCall)

	var ph planPhase
	ph.rtStart = readRuntime()
	ph.rps, ph.closedOK, ph.closedFail = closedLoopRate(ctx, closed, planWindow, workers, closedCall)

	ph.sched = sched
	ph.rtt = make([]time.Duration, len(sched))
	responses := make([][]byte, len(sched))
	start := time.Now()
	ph.samples = openLoop(ctx, start, sched, workers, func(w, i int, a arrival, due time.Time) bool {
		root := rec.startAt(0, "loadgen.request", due)
		sp := rec.start(root.ID(), "service.http.plan")
		t := time.Now()
		status, body, err := post(w, a.Item)
		ph.rtt[i] = time.Since(t)
		sp.end()
		root.end()
		if i%planCheckEach == 0 && err == nil {
			responses[i] = bytes.Clone(body)
		}
		return err == nil && status == http.StatusOK
	})
	ph.rtEnd = readRuntime()
	ph.checked = make(map[int][]byte)
	for i, b := range responses {
		if b != nil {
			ph.checked[i] = b
		}
	}
	return ph
}

func runPlan(ctx context.Context, o options) (outcome, error) {
	var out outcome
	var rec *recorder
	if o.trace {
		rec = newRecorder()
	}
	su, setupS, err := setupDaemonWorkload(ctx, o, rec)
	if err != nil {
		return out, err
	}
	defer su.d.stop()
	in, err := makePlanInputs(o, su.profs)
	if err != nil {
		return out, err
	}

	dur := o.measured()
	var ph planPhase
	var overhead float64
	var tracer *obs.Tracer
	if !o.trace {
		rss := startRSS()
		ph = measurePlan(ctx, su.d, in, o.rng(2), dur, nil)
		out.set("maxrss_mb", rss.peakMB())
	} else {
		// Untraced half, then traced half; the throughput gap is the
		// tracing overhead.
		a := measurePlan(ctx, su.d, in, o.rng(2), dur/2, nil)
		out.attempted += a.ops()
		out.failed += a.failures()
		tracer = obs.NewTracer(1<<20, nil)
		obs.EnableTracer(tracer)
		ph = measurePlan(ctx, su.d, in, o.rng(3), dur/2, rec)
		obs.EnableTracer(nil)
		overhead = (a.rps/ph.rps - 1) * 100
	}
	out.attempted += ph.ops()
	out.failed += ph.failures()

	// Output checks, outside the timed window: sampled served plans are
	// bit-exact against the reference optimizer over the daemon's curves.
	for i, body := range ph.checked {
		err := checkServedPlan(su.d.svc, body, in.groups[ph.sched[i].Item])
		out.check(err == nil, "plan request %d: %v", i, err)
	}

	if !o.trace {
		lat := summarize(ph.latencies())
		fmt.Fprintf(os.Stderr, "plan: closed %d ok, %.1f/s; open %s\n", ph.closedOK, ph.rps, lat.ladder())
		out.set("setup_s", setupS)
		out.set("ops_per_s", ph.rps)
		out.set("p50_ms", lat.P50)
		return out, nil
	}

	out.set("obs.trace_overhead_pct", overhead)
	runtimeDelta(&out, ph.rtStart, ph.rtEnd, ph.ops())
	out.set("loadgen.latency_ms.p99", summarize(ph.latencies()).at(99))
	lag, late := lagStats(ph.samples)
	out.set("loadgen.lag_ms.p99", lag)
	out.set("loadgen.late_frac", late)
	setProfilingLayers(&out, rec.snapshot())
	admissionLayers(&out, tracer)

	// Layer pass: the open-loop groups of the traced phase, replayed
	// in-process through each layer's public functions.
	var groups [][]string
	for _, a := range ph.sched {
		groups = append(groups, in.groups[a.Item])
	}
	if err := planLayers(ctx, &out, su, groups, rec); err != nil {
		return out, err
	}
	var rtt []float64
	for i, s := range ph.samples {
		if s.OK {
			rtt = append(rtt, us(ph.rtt[i]))
		}
	}
	sp := selfTimes(rec.snapshot())
	planFor := durationsUS(sp["service.plan_for"])
	out.set("service.http.plan_us.p50", median(rtt)-median(planFor))
	var layerSum float64
	for _, n := range []string{"service.http.decode", "service.curves", "partition.solve",
		"service.provenance.digest", "service.http.encode"} {
		layerSum += mean(durationsUS(sp[n]))
	}
	layerSum += out.metrics["service.admission.wait_us.p50"]
	out.set("trace.coverage", layerSum/mean(rtt))
	return out, writeSpansFile(o, "plan", rec)
}

// planLayers times each layer of the plan path on the given groups:
// request decode, curve gather, the serving solve, the provenance digest
// and the response encode, plus the whole in-process PlanFor; the
// reference optimizer on a sample; and the profile decode and curve
// derivation each registered tenant cost.
func planLayers(ctx context.Context, out *outcome, su daemonSetupResult, groups [][]string, rec *recorder) error {
	svc := su.d.svc
	var paths []string
	for i, names := range groups {
		body, err := json.Marshal(map[string]any{"tenants": names})
		if err != nil {
			return err
		}
		var plan service.Plan
		rec.timed(0, "service.plan_for", func() { plan, err = svc.PlanFor(ctx, names, 0) })
		if err != nil {
			return err
		}

		op := rec.start(0, "layer.op")
		var req struct {
			Tenants []string `json:"tenants"`
			Units   int      `json:"units,omitempty"`
		}
		rec.timed(op.ID(), "service.http.decode", func() { err = json.Unmarshal(body, &req) })
		if err != nil {
			return err
		}
		curves := make([]mrc.Curve, len(names))
		rec.timed(op.ID(), "service.curves", func() {
			for j, n := range req.Tenants {
				if curves[j], err = svc.CurveFor(n, 0); err != nil {
					return
				}
			}
		})
		if err != nil {
			return err
		}
		pr := partition.Problem{Curves: curves, Units: svc.Config().Units}
		var sol partition.Solution
		rec.timed(op.ID(), "partition.solve", func() { sol, err = partition.OptimizeParallel(ctx, pr, 1) })
		if err != nil {
			return err
		}
		paths = append(paths, sol.SolverPath)
		rec.timed(op.ID(), "service.provenance.digest", func() { service.InputDigest(names, curves, pr.Units) })
		rec.timed(op.ID(), "service.http.encode", func() { encodePlan(plan) })
		op.end()

		if i < 32 {
			rec.timed(0, "partition.reference", func() { _, err = partition.ReferenceOptimize(pr) })
			if err != nil {
				return err
			}
		}
	}
	sp := selfTimes(rec.snapshot())
	out.set("service.http.decode_us.p50", median(durationsUS(sp["service.http.decode"])))
	out.set("service.curves_us.p50", median(durationsUS(sp["service.curves"])))
	solve := summarize(durationsMS(sp["partition.solve"]))
	out.set("partition.solve_ms.p50", solve.P50)
	out.set("partition.solve_ms.p99", solve.at(99))
	out.set("service.provenance.digest_us.p50", median(durationsUS(sp["service.provenance.digest"])))
	out.set("service.http.encode_us.p50", median(durationsUS(sp["service.http.encode"])))
	out.set("partition.reference_ms.p50", median(durationsMS(sp["partition.reference"])))
	setSolverPaths(out, paths)
	return profileLayers(out, su.profs, svc.Config(), rec)
}

// profileLayers times what registering each profile costs the daemon
// beyond the store: decoding the upload and deriving its curve.
func profileLayers(out *outcome, profs []tenantProfile, cfg service.Config, rec *recorder) error {
	var kb float64
	for _, p := range profs {
		kb += float64(len(p.Body)) / 1024
		var prof profileio.Profile
		var err error
		rec.timed(0, "profileio.read", func() { prof, err = profileio.Read(bytes.NewReader(p.Body)) })
		if err != nil {
			return err
		}
		rec.timed(0, "mrc.derive", func() {
			mrc.FromFootprint(p.Name, prof.Footprint(), cfg.Units, cfg.BlocksPerUnit, prof.Rate)
		})
	}
	sp := selfTimes(rec.snapshot())
	read := summarize(durationsMS(sp["profileio.read"]))
	out.set("profileio.read_ms.p50", read.P50)
	out.set("profileio.read_ms.p90", read.at(90))
	out.set("profileio.body_kb.mean", kb/float64(len(profs)))
	out.set("mrc.derive_ms.p50", median(durationsMS(sp["mrc.derive"])))
	return nil
}

// setSolverPaths reports the share of solves whose solver-ladder path
// ran each rung.
func setSolverPaths(out *outcome, paths []string) {
	if len(paths) == 0 {
		return
	}
	for _, rung := range []string{"exact", "dc", "refine"} {
		n := 0
		for _, p := range paths {
			if strings.Contains(p, rung) {
				n++
			}
		}
		out.set("partition.path."+rung, float64(n)/float64(len(paths)))
	}
}

// setProfilingLayers reports the set-up's profiling passes, summed over
// the programs.
func setProfilingLayers(out *outcome, spans []spanRec) {
	sp := selfTimes(spans)
	out.set("trace.generate_s", sum(sp["trace.generate"]).Seconds())
	out.set("reuse.collect_s", sum(sp["reuse.collect"]).Seconds())
}

// admissionLayers reads the admission wait from the stage spans the
// daemon emits around each request's admission, the only view of a
// queue that lives inside the server, and the shed count from the
// daemon's metrics registry.
func admissionLayers(out *outcome, tracer *obs.Tracer) {
	var wait []float64
	for _, ev := range tracer.Events() {
		if ev.Name == "service.req.admission" {
			wait = append(wait, float64(ev.DurNS)/1e3)
		}
	}
	s := summarize(wait)
	out.set("service.admission.wait_us.p50", s.P50)
	out.set("service.admission.wait_us.p99", s.at(99))
	out.set("service.admission.shed", float64(obs.Enabled().Counter("service.admission.shed").Value()))
}

// encodePlan renders a plan exactly as the daemon's JSON writer does.
func encodePlan(p service.Plan) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	_ = enc.Encode(p) // a Plan always encodes; a bytes.Buffer write cannot fail
	return buf.Bytes()
}

// checkServedPlan decodes a served plan and checks it is the group's plan
// at the default geometry, bit-exact against ReferenceOptimize over the
// daemon's curves.
func checkServedPlan(svc *service.Service, body []byte, group []string) error {
	var p service.Plan
	if err := json.Unmarshal(body, &p); err != nil {
		return err
	}
	if !slices.Equal(p.Tenants, group) || p.Units != svc.Config().Units {
		return fmt.Errorf("served plan for %v at %d units, want %v at %d", p.Tenants, p.Units, group, svc.Config().Units)
	}
	return checkAgainstReference(svc, p)
}

// checkAgainstReference recomputes a plan's group with the reference
// optimizer over the daemon's current curves and requires the same
// allocation and bit-identical objective.
func checkAgainstReference(svc *service.Service, p service.Plan) error {
	curves := make([]mrc.Curve, len(p.Tenants))
	for i, n := range p.Tenants {
		c, err := svc.CurveFor(n, p.Units)
		if err != nil {
			return err
		}
		curves[i] = c
	}
	ref, err := partition.ReferenceOptimize(partition.Problem{Curves: curves, Units: p.Units})
	if err != nil {
		return err
	}
	if !slices.Equal([]int(ref.Alloc), p.Alloc) || math.Float64bits(ref.Objective) != math.Float64bits(p.Objective) {
		return fmt.Errorf("plan %v objective %v differs from reference %v objective %v",
			p.Alloc, p.Objective, []int(ref.Alloc), ref.Objective)
	}
	return nil
}

func durationsUS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = us(d)
	}
	return out
}

func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
