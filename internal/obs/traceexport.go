package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"sync"
)

// This file exports TraceEvents in the Chrome trace_event JSON format,
// which Perfetto (https://ui.perfetto.dev) and chrome://tracing load
// directly. Each completed span becomes one "X" (complete) event:
// ts/dur in microseconds, pid fixed at 1, tid = the span's lane, and
// the span/parent IDs carried in args so the hierarchy survives even
// across lanes. Lane rows are named with "thread_name" metadata events
// the first time each lane appears.
//
// The writer streams: events are appended to a dot-prefixed
// os.CreateTemp scratch file as they end and the file is published by
// sync+rename on Close — the same commit protocol as the -cpuprofile /
// -trace streams in profiles.go, and exempt from the atomicwrite
// analyzer by construction (CreateTemp is scratch; only a fully synced
// file ever appears under the final name).

// tracePID is the fixed process ID stamped on every exported event;
// the trace models one process with one row ("thread") per lane.
const tracePID = 1

// A TraceWriter is an in-progress trace-events file. Create with
// StartTraceEvents, attach to a Tracer via NewTracer, commit with
// Close (usually through Tracer.Close).
type TraceWriter struct {
	mu        sync.Mutex
	sf        *streamedFile
	bw        *bufio.Writer
	wrote     bool
	err       error
	seenLanes map[int64]bool
	closeOnce sync.Once
	closeErr  error
}

// StartTraceEvents opens a streamed Chrome trace_event file at path.
// Events emitted to the writer accumulate in a temp file; Close
// commits it atomically under the final name.
func StartTraceEvents(path string) (*TraceWriter, error) {
	sf, err := newStreamedFile(path)
	if err != nil {
		return nil, err
	}
	w := &TraceWriter{
		sf:        sf,
		bw:        bufio.NewWriterSize(sf.tmp, 1<<16),
		seenLanes: make(map[int64]bool),
	}
	if _, err := w.bw.WriteString(`{"displayTimeUnit":"ms","traceEvents":[`); err != nil {
		sf.abort()
		return nil, fmt.Errorf("obs: %w", err)
	}
	Logger().Info("trace events streaming", "path", path)
	return w, nil
}

// chromeEvent is the trace_event wire form of one span. ts and dur are
// microseconds; fractional microseconds keep full nanosecond precision.
type chromeEvent struct {
	Name string           `json:"name"`
	Cat  string           `json:"cat,omitempty"`
	Ph   string           `json:"ph"`
	TS   float64          `json:"ts"`
	Dur  float64          `json:"dur,omitempty"`
	PID  int              `json:"pid"`
	TID  int64            `json:"tid"`
	Args map[string]int64 `json:"args,omitempty"`
}

// laneName is the metadata payload naming a lane's row in the viewer.
type laneMeta struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	PID  int               `json:"pid"`
	TID  int64             `json:"tid"`
	Args map[string]string `json:"args"`
}

// emit appends one completed span. Errors are sticky: the first write
// failure is kept and reported by Close, later emits are dropped.
func (w *TraceWriter) emit(ev TraceEvent) {
	if w == nil {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return
	}
	if !w.seenLanes[ev.Lane] {
		w.seenLanes[ev.Lane] = true
		name := "main"
		if ev.Lane != 0 {
			name = fmt.Sprintf("lane-%d", ev.Lane)
		}
		w.writeJSON(laneMeta{
			Name: "thread_name",
			Ph:   "M",
			PID:  tracePID,
			TID:  ev.Lane,
			Args: map[string]string{"name": name},
		})
	}
	// Copy the args: the span's map is shared with the in-memory buffer,
	// which must not see the exporter's id/parent additions.
	args := make(map[string]int64, len(ev.Args)+2)
	for k, v := range ev.Args {
		args[k] = v
	}
	args["id"] = ev.ID
	if ev.Parent != 0 {
		args["parent"] = ev.Parent
	}
	w.writeJSON(chromeEvent{
		Name: ev.Name,
		Cat:  ev.Cat,
		Ph:   "X",
		TS:   float64(ev.StartNS) / 1e3,
		Dur:  float64(ev.DurNS) / 1e3,
		PID:  tracePID,
		TID:  ev.Lane,
		Args: args,
	})
}

// writeJSON appends one element to the traceEvents array. Callers hold
// w.mu and have checked w.err.
func (w *TraceWriter) writeJSON(v any) {
	data, err := json.Marshal(v)
	if err != nil {
		w.err = fmt.Errorf("obs: %w", err)
		return
	}
	if w.wrote {
		if err := w.bw.WriteByte(','); err != nil {
			w.err = fmt.Errorf("obs: %w", err)
			return
		}
	}
	if _, err := w.bw.Write(data); err != nil {
		w.err = fmt.Errorf("obs: %w", err)
		return
	}
	w.wrote = true
}

// Close terminates the JSON document, flushes, and commits the file
// atomically (sync+rename). Idempotent; returns the first error seen
// anywhere in the stream.
func (w *TraceWriter) Close() error {
	if w == nil {
		return nil
	}
	w.closeOnce.Do(func() {
		w.mu.Lock()
		defer w.mu.Unlock()
		if w.err != nil {
			w.sf.abort()
			w.closeErr = w.err
			return
		}
		if _, err := w.bw.WriteString("]}\n"); err != nil {
			w.sf.abort()
			w.closeErr = fmt.Errorf("obs: %w", err)
			return
		}
		if err := w.bw.Flush(); err != nil {
			w.sf.abort()
			w.closeErr = fmt.Errorf("obs: %w", err)
			return
		}
		w.closeErr = w.sf.commit()
	})
	return w.closeErr
}
