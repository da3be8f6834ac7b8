package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"

	"partitionshare/internal/compose"
	"partitionshare/internal/experiment"
	"partitionshare/internal/mrc"
	"partitionshare/internal/obs"
	"partitionshare/internal/partition"
	"partitionshare/internal/workload"
)

// The tablei workload: the paper's offline evaluation. Profile the 16
// programs, then regenerate Table I back to back — every 4-program group
// of the suite (1820) under all six schemes at 1024 units, on one sweep
// worker per CPU. The primary operation is one full sweep.
const tableIGroupSize = 4

// tableIDigest is the SHA-256 of the Table I rows (as JSON) this
// repository's code produces; every sweep must reproduce it.
//
//go:embed tablei.sha256
var tableIDigest string

func sameCurves(a, b []workload.Program) bool {
	return slices.EqualFunc(a, b, func(x, y workload.Program) bool {
		return x.Name == y.Name && x.Curve.Accesses == y.Curve.Accesses && slices.Equal(x.Curve.MR, y.Curve.MR)
	})
}

// sweep is one Table I regeneration.
type sweep struct {
	dur    time.Duration
	digest string
	res    experiment.Result
}

// tableIPhase sweeps back to back until dur has elapsed (the sweep in
// progress at that moment completes).
func tableIPhase(ctx context.Context, progs []workload.Program, dur time.Duration) ([]sweep, runtimeSnap, runtimeSnap, error) {
	cfg := workload.DefaultConfig()
	var out []sweep
	rt0 := readRuntime()
	start := time.Now()
	for time.Since(start) < dur {
		t := time.Now()
		res, err := experiment.Run(ctx, progs, tableIGroupSize, cfg.Units, cfg.BlocksPerUnit,
			experiment.RunOpts{Workers: runtime.GOMAXPROCS(0)})
		if err != nil {
			return nil, rt0, rt0, err
		}
		rows := experiment.TableI(res)
		d := time.Since(t)
		b, err := json.Marshal(rows)
		if err != nil {
			return nil, rt0, rt0, err
		}
		sum := sha256.Sum256(b)
		out = append(out, sweep{dur: d, digest: hex.EncodeToString(sum[:]), res: res})
	}
	return out, rt0, readRuntime(), nil
}

// checkSweeps checks every sweep: its Table I rows match the expected
// digest, and in every group Optimal's miss ratio is no higher than any
// other scheme's. It returns the groups evaluated.
func checkSweeps(out *outcome, sweeps []sweep) int64 {
	var groups int64
	want := strings.TrimSpace(tableIDigest)
	for i, s := range sweeps {
		groups += int64(len(s.res.Groups))
		out.check(s.digest == want, "sweep %d: Table I digest %s, want %s", i, s.digest, want)
		bad := 0
		for _, g := range s.res.Groups {
			opt := g.GroupMR[experiment.Optimal]
			for sc := experiment.Scheme(0); sc < experiment.NumSchemes; sc++ {
				if opt > g.GroupMR[sc]*(1+1e-12) {
					bad++
					break
				}
			}
		}
		if bad > 0 {
			out.fail(int64(bad), "sweep %d: Optimal worse than another scheme in %d groups", i, bad)
		}
	}
	return groups
}

// sweepStats returns the sweep times in milliseconds and the groups
// evaluated per second at the median sweep time.
func sweepStats(sweeps []sweep) (groupsPerS float64, times []float64) {
	for _, s := range sweeps {
		times = append(times, ms(s.dur))
	}
	if len(sweeps) == 0 {
		return 0, nil
	}
	return float64(len(sweeps[0].res.Groups)) / (median(times) / 1000), times
}

func runTableI(ctx context.Context, o options) (outcome, error) {
	var out outcome
	var rec *recorder
	var tracer *obs.Tracer
	reps := setupReps
	if o.trace {
		rec = newRecorder()
		reps = 1
		// Traced from the start, so the profiling passes' own spans are
		// recorded too.
		tracer = obs.NewTracer(1<<20, nil)
		obs.EnableTracer(tracer)
	}
	progs, setupS, err := medianSetup(reps, func(int) ([]workload.Program, error) {
		sp := rec.start(0, "workload.profile_all")
		defer sp.end()
		return workload.ProfileAll(ctx, workload.Specs(), workload.DefaultConfig())
	}, sameCurves, func([]workload.Program) {})
	if err != nil {
		return out, err
	}
	dur := o.measured()

	if !o.trace {
		rss := startRSS()
		sweeps, _, _, err := tableIPhase(ctx, progs, dur)
		out.set("maxrss_mb", rss.peakMB())
		if err != nil {
			return out, err
		}
		out.attempted += checkSweeps(&out, sweeps)
		gps, times := sweepStats(sweeps)
		s := summarize(times)
		fmt.Fprintf(os.Stderr, "tablei: %.1f groups/s; sweep %s\n", gps, s.ladder())
		out.set("setup_s", setupS)
		out.set("ops_per_s", gps)
		out.set("p50_ms", s.P50)
		return out, nil
	}

	var profileSpans = map[string]float64{}
	for _, ev := range tracer.Events() {
		profileSpans[ev.Name] += float64(ev.DurNS) / 1e9
	}
	out.set("trace.generate_s", profileSpans["workload.trace_generate"])
	out.set("reuse.collect_s", profileSpans["workload.reuse_collect"])
	out.set("workload.profile_all_s", sum(selfTimes(rec.snapshot())["workload.profile_all"]).Seconds())
	obs.EnableTracer(nil)

	// Untraced half, then traced half; the sweep-time gap is the tracing
	// overhead.
	a, _, _, err := tableIPhase(ctx, progs, dur/2)
	if err != nil {
		return out, err
	}
	out.attempted += checkSweeps(&out, a)
	tracer = obs.NewTracer(1<<20, nil)
	obs.EnableTracer(tracer)
	b, rt0, rt1, err := tableIPhase(ctx, progs, dur/2)
	obs.EnableTracer(nil)
	if err != nil {
		return out, err
	}
	groupsB := checkSweeps(&out, b)
	out.attempted += groupsB
	_, ta := sweepStats(a)
	_, tb := sweepStats(b)
	out.set("obs.trace_overhead_pct", (median(tb)/median(ta)-1)*100)
	runtimeDelta(&out, rt0, rt1, groupsB)
	var libGroup []float64
	for _, ev := range tracer.Events() {
		if ev.Name == "experiment.group" {
			libGroup = append(libGroup, float64(ev.DurNS)/1e6)
		}
	}

	if err := tableILayers(&out, progs, rec); err != nil {
		return out, err
	}
	sp := selfTimes(rec.snapshot())
	var layerSum float64
	for _, n := range []string{"partition.evaluate", "compose.natural", "partition.baseline", "partition.optimal", "partition.sttw"} {
		layerSum += ms(sum(sp[n]))
	}
	out.set("trace.coverage", layerSum/float64(len(sp["experiment.group"]))/mean(libGroup))
	return out, writeSpansFile(o, "tablei", rec)
}

// tableILayers replays every group of one sweep through the schemes'
// public functions, as experiment.Run evaluates it, with a span around
// each call.
func tableILayers(out *outcome, progs []workload.Program, rec *recorder) error {
	cfg := workload.DefaultConfig()
	units := cfg.Units
	combos, err := experiment.Combinations(len(progs), tableIGroupSize)
	if err != nil {
		return err
	}
	costTab := experiment.CostTable(progs, units)
	for _, members := range combos {
		g := rec.start(0, "experiment.group")
		curves := make([]mrc.Curve, len(members))
		comps := make([]compose.Program, len(members))
		tab := make([][]float64, len(members))
		for i, m := range members {
			curves[i] = progs[m].Curve
			comps[i] = compose.Program{Name: progs[m].Name, Fp: progs[m].Fp, Rate: progs[m].Rate}
			tab[i] = costTab[m]
		}
		pr := partition.Problem{Curves: curves, Units: units, CostTable: tab}
		equal := partition.EqualAllocation(len(members), units)
		var natural partition.Allocation
		rec.timed(g.ID(), "partition.evaluate", func() { _, err = partition.Evaluate(pr, equal) })
		if err != nil {
			return err
		}
		rec.timed(g.ID(), "compose.natural", func() {
			natural = partition.Allocation(compose.NaturalPartitionUnits(comps, units, cfg.BlocksPerUnit))
		})
		rec.timed(g.ID(), "partition.evaluate", func() { _, err = partition.Evaluate(pr, natural) })
		if err != nil {
			return err
		}
		for _, base := range []partition.Allocation{equal, natural} {
			rec.timed(g.ID(), "partition.baseline", func() { _, err = partition.OptimizeBaseline(pr, base) })
			if err != nil {
				return err
			}
		}
		rec.timed(g.ID(), "partition.optimal", func() { _, err = partition.Optimize(pr) })
		if err != nil {
			return err
		}
		rec.timed(g.ID(), "partition.sttw", func() { partition.STTW(curves, units) })
		g.end()
	}
	sp := selfTimes(rec.snapshot())
	out.set("partition.optimal_ms.p50", median(durationsMS(sp["partition.optimal"])))
	out.set("partition.baseline_ms.p50", median(durationsMS(sp["partition.baseline"])))
	out.set("partition.sttw_us.p50", median(durationsUS(sp["partition.sttw"])))
	out.set("partition.evaluate_us.p50", median(durationsUS(sp["partition.evaluate"])))
	out.set("compose.natural_us.p50", median(durationsUS(sp["compose.natural"])))
	var group []float64
	for _, s := range rec.snapshot() {
		if s.Name == "experiment.group" {
			group = append(group, float64(s.End-s.Start)/1e6)
		}
	}
	gs := summarize(group)
	out.set("experiment.group_ms.p50", gs.P50)
	out.set("experiment.group_ms.p99", gs.at(99))
	return nil
}
