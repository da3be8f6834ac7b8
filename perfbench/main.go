// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload, generated from a seed, against the program's real code
// paths — partitiond's HTTP service on loopback, or the offline Table I
// sweep — checks that the outputs are correct, and prints one JSON result
// line with every end-to-end metric (or, with -trace 1, every per-layer
// metric) by name and unit.
//
// Usage, from the repository root (run.sh builds and runs it):
//
//	bash perfbench/run.sh --workload plan|churn|tablei --seed N --seconds S --trace 0|1
//
// See README.md in this directory for the workloads, the metrics, and the
// layers each workload exercises.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"math/rand/v2"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"partitionshare/internal/obs"
)

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	root     string
	data     string
}

// measured returns the run's measurement window.
func (o options) measured() time.Duration { return time.Duration(o.seconds * float64(time.Second)) }

// rng returns a generator for one purpose (stream), derived from the seed.
func (o options) rng(stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(o.seed, 0x9e3779b97f4a7c15^stream))
}

// A metricDef names one reported metric and its unit.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd lists the metrics an untraced run prints, for every workload.
// Each workload measures one primary operation; README.md gives what the
// operation is on each. Latency tails are printed in the run summary on
// stderr, with their sample counts, but are not end-to-end metrics: on a
// small shared machine they vary too much between identical runs to hold
// to any bound (README.md has the figures).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"maxrss_mb", "MB"},
}

// perLayer lists the metrics a traced run prints, for every workload. A
// layer the workload does not exercise reads 0.
var perLayer = []metricDef{
	{"service.http.plan_us.p50", "us"},
	{"service.http.read_us.p50", "us"},
	{"service.http.read_us.p99", "us"},
	{"service.http.put_ms.p50", "ms"},
	{"service.http.put_ms.p90", "ms"},
	{"service.http.encode_us.p50", "us"},
	{"service.http.decode_us.p50", "us"},
	{"service.admission.wait_us.p50", "us"},
	{"service.admission.wait_us.p99", "us"},
	{"service.admission.shed", "count"},
	{"service.curves_us.p50", "us"},
	{"service.provenance.digest_us.p50", "us"},
	{"service.diff_us.p50", "us"},
	{"service.epoch_ms.p50", "ms"},
	{"service.epoch_ms.p90", "ms"},
	{"service.store.put_ms.p50", "ms"},
	{"service.store.put_ms.p90", "ms"},
	{"service.store.compactions", "count"},
	{"service.audit.append_ms.p50", "ms"},
	{"service.audit.append_ms.p90", "ms"},
	{"service.feed.publish_us.p50", "us"},
	{"service.feed.gaps", "count"},
	{"profileio.read_ms.p50", "ms"},
	{"profileio.read_ms.p90", "ms"},
	{"profileio.body_kb.mean", "KB"},
	{"mrc.derive_ms.p50", "ms"},
	{"partition.solve_ms.p50", "ms"},
	{"partition.solve_ms.p99", "ms"},
	{"partition.path.exact", "ratio"},
	{"partition.path.dc", "ratio"},
	{"partition.path.refine", "ratio"},
	{"partition.reference_ms.p50", "ms"},
	{"partition.incremental_ms.p50", "ms"},
	{"partition.incremental_ms.p90", "ms"},
	{"partition.reused_layers.mean", "count"},
	{"partition.cold16_ms.p50", "ms"},
	{"partition.optimal_ms.p50", "ms"},
	{"partition.baseline_ms.p50", "ms"},
	{"partition.sttw_us.p50", "us"},
	{"partition.evaluate_us.p50", "us"},
	{"compose.natural_us.p50", "us"},
	{"experiment.group_ms.p50", "ms"},
	{"experiment.group_ms.p99", "ms"},
	{"trace.generate_s", "s"},
	{"reuse.collect_s", "s"},
	{"workload.profile_all_s", "s"},
	{"go.alloc_kb_per_op", "KB"},
	{"go.gc_cpu_frac", "ratio"},
	{"go.gc_pause_ms.p99", "ms"},
	{"loadgen.latency_ms.p99", "ms"},
	{"loadgen.lag_ms.p99", "ms"},
	{"loadgen.late_frac", "ratio"},
	{"trace.coverage", "ratio"},
	{"obs.trace_overhead_pct", "%"},
}

// An outcome is what a workload run reports: operations attempted and
// failed (a failed check counts as a failed operation), and its metric
// values by name.
type outcome struct {
	attempted, failed int64
	metrics           map[string]float64
}

func (o *outcome) set(name string, v float64) {
	if o.metrics == nil {
		o.metrics = make(map[string]float64)
	}
	o.metrics[name] = v
}

// fail records n failed operations that were attempted but are not
// already counted in attempted (output checks run after the load).
func (o *outcome) fail(n int64, format string, args ...any) {
	o.attempted += n
	o.failed += n
	fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
}

// check counts one output check as an attempted operation, failed when
// ok is false.
func (o *outcome) check(ok bool, format string, args ...any) {
	if ok {
		o.attempted++
		return
	}
	o.fail(1, format, args...)
}

var workloads = map[string]func(context.Context, options) (outcome, error){
	"plan":   runPlan,
	"churn":  runChurn,
	"tablei": runTableI,
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload to run: plan, churn or tablei")
	flag.Uint64Var(&o.seed, "seed", 1, "seed the workload's inputs and schedule are generated from")
	flag.Float64Var(&o.seconds, "seconds", 20, "seconds of measurement")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs the traced variant and prints the per-layer metrics")
	flag.StringVar(&o.root, "root", ".", "repository root (for the source digest recorded with the result)")
	flag.StringVar(&o.data, "data", ".bench_build", "scratch directory for stores, audit logs and span dumps")
	flag.Parse()
	o.trace = traceFlag == 1
	run, ok := workloads[o.workload]
	if !ok || o.seconds <= 0 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload plan|churn|tablei, -seconds > 0, -trace 0|1\n")
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// partitiond's defaults: the metrics registry and the flight recorder
	// are on, trace export is off; diagnostics at warn level only.
	obs.InitLogging(os.Stderr, slog.LevelWarn, false)
	obs.Enable(obs.NewRegistry())
	obs.EnableFlightRecorder(obs.NewFlightRecorder(obs.DefaultFlightCap))

	dir, err := filepath.Abs(o.data)
	if err == nil {
		o.data = filepath.Join(dir, fmt.Sprintf("run-%d", os.Getpid()))
		err = os.MkdirAll(o.data, 0o755)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := run(ctx, o)
	if rerr := os.RemoveAll(o.data); err == nil {
		err = rerr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}

	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	res := result{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed,
		Metrics: make(map[string]metricOut, len(defs))}
	for _, d := range defs {
		v, ok := out.metrics[d.Name]
		if !ok && !o.trace {
			fmt.Fprintf(os.Stderr, "perfbench: workload %s did not measure %s\n", o.workload, d.Name)
			os.Exit(1)
		}
		res.Metrics[d.Name] = metricOut{Value: v, Unit: d.Unit}
	}
	if res.Attempted < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: no operations attempted")
		os.Exit(1)
	}
	envLine, _ := json.Marshal(environment(o))
	fmt.Printf("# env %s\n", envLine)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// environment is recorded with every result: the machine's CPU count,
// the scheduler's, the toolchain, and which source was measured.
func environment(o options) map[string]any {
	return map[string]any{
		"workload":   o.workload,
		"seed":       o.seed,
		"seconds":    o.seconds,
		"trace":      o.trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     gitCommit(o.root),
		"source":     sourceDigest(o.root),
	}
}

// setupReps is how many times a run repeats its set-up; setup_s is the
// median.
const setupReps = 3

// medianSetup runs setup reps times and returns the median duration in
// seconds together with the last repetition's result; each earlier result
// is released with drop once the next one exists. Every repetition must
// produce a result equal to the one before. A collection afterwards
// clears the set-up's garbage before anything is measured.
func medianSetup[T any](reps int, setup func(rep int) (T, error), equal func(a, b T) bool, drop func(T)) (T, float64, error) {
	var times []float64
	var last T
	for rep := 0; rep < reps; rep++ {
		t := time.Now()
		v, err := setup(rep)
		if err != nil {
			if rep > 0 {
				drop(last)
			}
			return v, 0, err
		}
		times = append(times, time.Since(t).Seconds())
		if rep > 0 {
			drop(last)
			if !equal(last, v) {
				drop(v)
				return v, 0, fmt.Errorf("set-up repetition %d differs from the one before", rep)
			}
		}
		last = v
	}
	runtime.GC()
	return last, median(times), nil
}
