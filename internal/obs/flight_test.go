package obs

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"
)

func TestFlightRecorderRings(t *testing.T) {
	fr := NewFlightRecorder(4)
	for i := 0; i < 10; i++ {
		status := 200
		if i%3 == 0 {
			status = 503
		}
		fr.Record(RequestRecord{
			Route:  fmt.Sprintf("r%d", i),
			Status: status,
			DurNS:  int64(i) * 100,
		})
	}
	snap := fr.Snapshot()
	if snap.Total != 10 {
		t.Fatalf("total = %d, want 10", snap.Total)
	}
	if snap.Errors != 4 { // i = 0, 3, 6, 9
		t.Fatalf("errors = %d, want 4", snap.Errors)
	}
	if len(snap.Recent) != 4 || len(snap.Errored) != 4 || len(snap.Slowest) != 4 {
		t.Fatalf("ring sizes = %d/%d/%d, want 4 each", len(snap.Recent), len(snap.Errored), len(snap.Slowest))
	}
	// Recent is newest-first.
	if snap.Recent[0].Route != "r9" || snap.Recent[3].Route != "r6" {
		t.Fatalf("recent order wrong: %s .. %s", snap.Recent[0].Route, snap.Recent[3].Route)
	}
	// Slowest is descending by duration and capped.
	for i := 1; i < len(snap.Slowest); i++ {
		if snap.Slowest[i].DurNS > snap.Slowest[i-1].DurNS {
			t.Fatalf("slowest not descending at %d", i)
		}
	}
	if snap.Slowest[0].Route != "r9" {
		t.Fatalf("slowest[0] = %s, want r9", snap.Slowest[0].Route)
	}
	// Errored keeps only error-status records.
	for _, rec := range snap.Errored {
		if rec.Status < 400 {
			t.Fatalf("errored ring holds a %d", rec.Status)
		}
	}
}

func TestFlightRecorderSlowestRanking(t *testing.T) {
	fr := NewFlightRecorder(3)
	for _, d := range []int64{50, 10, 90, 30, 70} {
		fr.Record(RequestRecord{DurNS: d})
	}
	snap := fr.Snapshot()
	want := []int64{90, 70, 50}
	if len(snap.Slowest) != len(want) {
		t.Fatalf("slowest len = %d, want %d", len(snap.Slowest), len(want))
	}
	for i, d := range want {
		if snap.Slowest[i].DurNS != d {
			t.Fatalf("slowest[%d] = %d, want %d", i, snap.Slowest[i].DurNS, d)
		}
	}
}

func TestFlightRecorderNilAndGlobal(t *testing.T) {
	var fr *FlightRecorder
	fr.Record(RequestRecord{Status: 500}) // must not panic
	if snap := fr.Snapshot(); snap.Total != 0 {
		t.Fatal("nil recorder reported records")
	}

	prev := ActiveFlightRecorder()
	defer EnableFlightRecorder(prev)
	live := NewFlightRecorder(0)
	EnableFlightRecorder(live)
	if ActiveFlightRecorder() != live {
		t.Fatal("EnableFlightRecorder did not install the recorder")
	}
	ActiveFlightRecorder().Record(RequestRecord{Status: 200})
	if ActiveFlightRecorder().Snapshot().Total != 1 {
		t.Fatal("record through the global handle lost")
	}
	EnableFlightRecorder(nil)
	ActiveFlightRecorder().Record(RequestRecord{Status: 200}) // disabled: no-op
}

func TestFlightRecorderConcurrent(t *testing.T) {
	fr := NewFlightRecorder(8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				fr.Record(RequestRecord{Status: 200 + (i%2)*300, DurNS: int64(i)})
			}
		}()
	}
	wg.Wait()
	snap := fr.Snapshot()
	if snap.Total != 1600 {
		t.Fatalf("total = %d, want 1600", snap.Total)
	}
	if len(snap.Recent) != 8 || len(snap.Slowest) != 8 {
		t.Fatalf("rings overflowed their cap: %d/%d", len(snap.Recent), len(snap.Slowest))
	}
}

// A request root owns its flight record: direct children append their
// stage timings in completion order, grandchildren do not, and the
// root's End files the record into the active recorder. Outside a
// request every entry point is inert, so instrumentation never branches.
func TestRequestSpanStages(t *testing.T) {
	prev := ActiveFlightRecorder()
	defer EnableFlightRecorder(prev)
	fr := NewFlightRecorder(0)
	EnableFlightRecorder(fr)

	tc := NewTraceContext()
	ctx, root := StartRequest(nil, "obs.req", "test", tc)
	actx, admission := Start(ctx, "admission", "test")
	_, queue := Start(actx, "queue", "test") // grandchild: not a stage
	queue.End()
	if RequestFrom(actx) != root || TraceIDFrom(actx) != tc.TraceIDString() {
		t.Fatal("request root not retrievable under a child span")
	}
	admission.End()
	_, solve := Start(WithTraceLane(ctx, 3), "solve", "test")
	solve.End()
	RequestFrom(actx).SetTenant("acme")
	root.SetRoute("POST", "plan")
	root.SetOutcome("admitted")
	root.SetEpoch(7)
	root.SetCode("deadline")
	root.SetStatus(504)
	root.End()

	snap := fr.Snapshot()
	if snap.Total != 1 || len(snap.Errored) != 1 {
		t.Fatalf("filed %d records (%d errored), want 1/1", snap.Total, len(snap.Errored))
	}
	got := snap.Recent[0]
	want := RequestRecord{Method: "POST", Route: "plan", Tenant: "acme", Status: 504, Code: "deadline",
		Outcome: "admitted", TraceID: tc.TraceIDString(), Epoch: 7, StartNS: got.StartNS, DurNS: got.DurNS}
	if got.DurNS <= 0 || len(got.Stages) != 2 || got.Stages[0].Name != "admission" || got.Stages[1].Name != "solve" {
		t.Fatalf("record timing/stages = %d ns %+v, want [admission solve]", got.DurNS, got.Stages)
	}
	if got.Stages = nil; !reflect.DeepEqual(got, want) {
		t.Fatalf("record = %+v, want %+v", got, want)
	}

	// Outside a request: no root, no trace ID, inert setters, no span.
	if RequestFrom(nil) != nil || TraceIDFrom(context.Background()) != "" {
		t.Fatal("request lookup outside a request is not empty")
	}
	var nilSpan *Span
	nilSpan.SetTenant("x")
	nilSpan.End()
	if rec := nilSpan.Record(); rec.Status != 0 || rec.Stages != nil {
		t.Fatal("nil span returned a record")
	}
	if _, plain := Start(context.Background(), "plain", "test"); plain != nil || fr.Snapshot().Total != 1 {
		t.Fatal("a span with no sink was allocated or filed")
	}
}
