//go:build ignore

// Checktrace asserts that a -trace-events file written by cmd/experiments
// is a well-formed Chrome trace_event document: it parses as JSON, holds
// at least one complete ("X") event, names the expected pipeline spans
// (a DP solve, a workload profiling pass, a sweep group), and contains at
// least one parented span — the hierarchy is the feature, so a flat
// timeline fails the gate. CI runs it against the trace of an
// `experiments -small -trace-events` run:
//
//	go run scripts/checktrace.go /tmp/obs-smoke/trace.json [MANIFEST.json]
//
// With the run's manifest as a second argument it also cross-checks the
// two exports of the one span model: every manifest stage must have
// exactly one same-named cat:"stage" trace event, and that event's dur
// (microseconds, nanosecond fraction) must equal the stage's wall_ns —
// one span End fed both, so the durations are the same number.
package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"
)

func main() {
	if len(os.Args) != 2 && len(os.Args) != 3 {
		fail("usage: go run scripts/checktrace.go TRACE.json [MANIFEST.json]")
	}
	path := os.Args[1]
	data, err := os.ReadFile(path)
	if err != nil {
		fail("%v", err)
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string         `json:"name"`
			Cat  string         `json:"cat"`
			Ph   string         `json:"ph"`
			Dur  float64        `json:"dur"`
			TID  int64          `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		fail("%s: not valid JSON: %v", path, err)
	}
	if doc.DisplayTimeUnit != "ms" {
		fail("%s: displayTimeUnit = %q, want \"ms\"", path, doc.DisplayTimeUnit)
	}
	var complete, parented, lanes int
	names := map[string]bool{}
	stageDurs := map[string][]float64{} // cat:"stage" event durations by name
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			lanes++
		case "X":
			complete++
			names[ev.Name] = true
			if ev.Cat == "stage" {
				stageDurs[ev.Name] = append(stageDurs[ev.Name], ev.Dur)
			}
			if _, ok := ev.Args["parent"]; ok {
				parented++
			}
		}
	}
	if complete == 0 {
		fail("%s: no complete (\"X\") events", path)
	}
	if parented == 0 {
		fail("%s: no parented spans — the span hierarchy is missing", path)
	}
	if lanes == 0 {
		fail("%s: no thread_name lane metadata", path)
	}
	for _, want := range []string{"experiment.dp_solve", "workload.", "experiment.group"} {
		found := false
		for n := range names {
			if strings.HasPrefix(n, strings.TrimSuffix(want, ".")) {
				found = true
				break
			}
		}
		if !found {
			fail("%s: no span matching %q among %d names", path, want, len(names))
		}
	}
	if len(os.Args) == 3 {
		checkStages(os.Args[2], stageDurs)
	}
	fmt.Printf("trace OK: %s (%d events, %d parented, %d lanes)\n",
		path, complete, parented, lanes)
}

// checkStages asserts that each manifest stage has exactly one
// same-named stage trace event whose duration equals the stage's.
func checkStages(path string, stageDurs map[string][]float64) {
	data, err := os.ReadFile(path)
	if err != nil {
		fail("%v", err)
	}
	var m struct {
		Stages []struct {
			Name   string `json:"name"`
			WallNS int64  `json:"wall_ns"`
		} `json:"stages"`
	}
	if err := json.Unmarshal(data, &m); err != nil {
		fail("%s: not valid JSON: %v", path, err)
	}
	if len(m.Stages) == 0 {
		fail("%s: no stages to cross-check", path)
	}
	for _, st := range m.Stages {
		durs := stageDurs[st.Name]
		if len(durs) != 1 {
			fail("manifest stage %q has %d cat:\"stage\" trace events, want exactly 1", st.Name, len(durs))
		}
		if d := math.Abs(durs[0]*1e3 - float64(st.WallNS)); d >= 0.5 {
			fail("stage %q: trace dur %.3fus != manifest wall_ns %d", st.Name, durs[0], st.WallNS)
		}
	}
	fmt.Printf("stages OK: %d manifest stages match their trace events\n", len(m.Stages))
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "checktrace: "+format+"\n", args...)
	os.Exit(1)
}
