package obs

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// chromeDoc is the test-side decoding of the exported trace_event JSON.
type chromeDoc struct {
	DisplayTimeUnit string `json:"displayTimeUnit"`
	TraceEvents     []struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int64          `json:"tid"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
}

// Spans started under a span's returned context must record that span as
// their parent, across any nesting depth.
func TestTracerHierarchy(t *testing.T) {
	tr := NewTracer(0, nil)
	useTracer(t, tr)
	ctx, root := Start(context.Background(), "root", "stage")
	cctx, child := Start(ctx, "child", "op")
	_, grand := Start(cctx, "grandchild", "op")
	grand.End()
	child.End()
	root.End()

	events := tr.Events()
	if len(events) != 3 {
		t.Fatalf("events = %d, want 3", len(events))
	}
	byName := map[string]TraceEvent{}
	for _, ev := range events {
		byName[ev.Name] = ev
	}
	if byName["root"].Parent != 0 {
		t.Errorf("root parent = %d, want 0", byName["root"].Parent)
	}
	if byName["child"].Parent != byName["root"].ID {
		t.Errorf("child parent = %d, want root id %d", byName["child"].Parent, byName["root"].ID)
	}
	if byName["grandchild"].Parent != byName["child"].ID {
		t.Errorf("grandchild parent = %d, want child id %d", byName["grandchild"].Parent, byName["child"].ID)
	}
}

// WithTraceLane assigns the row; descendants inherit it, and the span
// carried by the context survives the lane re-tag.
func TestTracerLanes(t *testing.T) {
	tr := NewTracer(0, nil)
	useTracer(t, tr)
	ctx, parent := Start(context.Background(), "parent", "stage")
	_, child := Start(WithTraceLane(ctx, 7), "child", "op")
	child.End()
	parent.End()

	for _, ev := range tr.Events() {
		switch ev.Name {
		case "parent":
			if ev.Lane != 0 {
				t.Errorf("parent lane = %d, want 0", ev.Lane)
			}
		case "child":
			if ev.Lane != 7 {
				t.Errorf("child lane = %d, want 7", ev.Lane)
			}
			if ev.Parent != 1 {
				t.Errorf("child parent = %d, want 1 (the lane re-tag must keep the parent span)", ev.Parent)
			}
		}
	}
}

// The in-memory buffer is capped; overflow is counted, not stored.
func TestTracerCap(t *testing.T) {
	tr := NewTracer(4, nil)
	useTracer(t, tr)
	for i := 0; i < 10; i++ {
		_, s := Start(context.Background(), "op", "test")
		s.End()
	}
	if got := len(tr.Events()); got != 4 {
		t.Errorf("buffered events = %d, want 4", got)
	}
	if got := tr.Dropped(); got != 6 {
		t.Errorf("dropped = %d, want 6", got)
	}
}

// Every entry point must be a no-op on nil receivers and with no active
// tracer — the disabled-by-default contract the hot paths rely on.
func TestTracerNilSafety(t *testing.T) {
	var tr *Tracer
	if tr.Events() != nil || tr.Dropped() != 0 || tr.Close() != nil {
		t.Error("nil tracer methods are not inert")
	}

	if ActiveTracer() != nil {
		t.Fatal("tracer active at test start")
	}
	ctx, s := Start(context.Background(), "x", "y")
	if s != nil {
		t.Error("Start returned a span with no sink to feed")
	}
	if ctx == nil {
		t.Error("Start dropped the context")
	}
	s.Arg("k", 1).End()
	// nil contexts are tolerated everywhere.
	Start(nil, "x", "y")
	WithTraceLane(nil, 1)
}

// With tracing off and no request in the context, Start+End allocates
// nothing: every cancellable DP solve opens a span, so the default
// configuration must not pay for the span model. The lane tag and the
// enclosing stage span (a grandchild of a request root) are the shapes
// the solver actually sees.
func TestStartUntracedAllocFree(t *testing.T) {
	if ActiveTracer() != nil || Enabled() != nil {
		t.Fatal("telemetry enabled at test start")
	}
	ctxs := map[string]context.Context{
		"background": context.Background(),
		"lane":       WithTraceLane(context.Background(), 2),
	}
	rctx, root := StartRequest(nil, "obs.req", "test", NewTraceContext())
	defer root.End()
	ctxs["under request stage"], _ = Start(rctx, "solve", "test")
	for name, ctx := range ctxs {
		allocs := testing.AllocsPerRun(1000, func() {
			_, s := Start(ctx, "partition.solve", "dp")
			s.Arg("programs", 4).End()
		})
		if allocs != 0 {
			t.Errorf("%s: Start+End allocates %.1f times per span, want 0", name, allocs)
		}
	}
}

// Concurrent span recording across goroutines must be safe (run under
// -race) and lose no events below the cap.
func TestTracerConcurrent(t *testing.T) {
	tr := NewTracer(0, nil)
	useTracer(t, tr)
	ctx, root := Start(context.Background(), "root", "stage")
	const workers, per = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wctx := WithTraceLane(ctx, int64(w+1))
			for i := 0; i < per; i++ {
				_, s := Start(wctx, "op", "test")
				s.Arg("i", int64(i)).End()
			}
		}(w)
	}
	wg.Wait()
	root.End()

	events := tr.Events()
	if len(events) != workers*per+1 {
		t.Fatalf("events = %d, want %d", len(events), workers*per+1)
	}
	rootID := int64(1)
	for _, ev := range events {
		if ev.Name == "op" && ev.Parent != rootID {
			t.Fatalf("op parent = %d, want %d", ev.Parent, rootID)
		}
	}
	// Events() sorts by start offset.
	for i := 1; i < len(events); i++ {
		if events[i].StartNS < events[i-1].StartNS {
			t.Fatal("Events() not sorted by StartNS")
		}
	}
}

// The streamed writer must produce a valid Chrome trace_event document:
// header/footer intact after an atomic commit, one thread_name metadata
// record per lane, and span/parent IDs preserved in args.
func TestStartTraceEventsRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	tw, err := StartTraceEvents(path)
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTracer(0, tw)
	useTracer(t, tr)
	ctx, root := Start(context.Background(), "sweep", "stage")
	_, child := Start(WithTraceLane(ctx, 3), "dp.solve", "dp")
	child.Arg("scheme", 4).End()
	root.End()
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil { // idempotent
		t.Fatal(err)
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc chromeDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace file is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q, want ms", doc.DisplayTimeUnit)
	}
	var metaLanes, complete int
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			if ev.Name != "thread_name" {
				t.Errorf("metadata event name = %q", ev.Name)
			}
			metaLanes++
		case "X":
			complete++
			if ev.PID != tracePID {
				t.Errorf("event pid = %d, want %d", ev.PID, tracePID)
			}
			if ev.Name == "dp.solve" {
				if ev.TID != 3 {
					t.Errorf("dp.solve tid = %d, want 3", ev.TID)
				}
				if ev.Args["parent"] != float64(1) {
					t.Errorf("dp.solve args.parent = %v, want 1", ev.Args["parent"])
				}
				if ev.Args["scheme"] != float64(4) {
					t.Errorf("dp.solve args.scheme = %v, want 4", ev.Args["scheme"])
				}
			}
		}
	}
	if metaLanes != 2 { // lane 0 and lane 3
		t.Errorf("thread_name metadata events = %d, want 2", metaLanes)
	}
	if complete != 2 {
		t.Errorf("complete events = %d, want 2", complete)
	}
}

// Events past the in-memory cap must still reach the streamed sink — the
// file is bounded by disk, not by the buffer.
func TestTracerSinkBeyondCap(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	tw, err := StartTraceEvents(path)
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTracer(2, tw)
	useTracer(t, tr)
	for i := 0; i < 5; i++ {
		_, s := Start(context.Background(), "op", "test")
		s.End()
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc chromeDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	var complete int
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			complete++
		}
	}
	if complete != 5 {
		t.Errorf("streamed complete events = %d, want 5 (cap must not drop sink events)", complete)
	}
	if tr.Dropped() != 3 {
		t.Errorf("dropped = %d, want 3", tr.Dropped())
	}
}

// EnableTracer mirrors Enable: installs, serves, detaches.
func TestEnableTracer(t *testing.T) {
	if ActiveTracer() != nil {
		t.Fatal("tracer active at test start")
	}
	tr := NewTracer(0, nil)
	EnableTracer(tr)
	defer EnableTracer(nil)
	if ActiveTracer() != tr {
		t.Fatal("EnableTracer did not install the tracer")
	}
	_, s := Start(context.Background(), "op", "test")
	s.End()
	if got := len(tr.Events()); got != 1 {
		t.Errorf("events through the global tracer = %d, want 1", got)
	}
	EnableTracer(nil)
	if ActiveTracer() != nil {
		t.Error("EnableTracer(nil) did not detach")
	}
}

// useTracer installs tr as the global tracer for one test.
func useTracer(t *testing.T, tr *Tracer) {
	t.Helper()
	EnableTracer(tr)
	t.Cleanup(func() { EnableTracer(nil) })
}
