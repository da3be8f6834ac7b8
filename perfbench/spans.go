package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// A recorder keeps the benchmark's own spans in memory: one per call the
// benchmark makes into a layer of the program, with the span that caused
// it as parent. Spans are written out once, when the run ends. A nil
// recorder records nothing, so the untraced runs execute the same code
// with tracing off.
type recorder struct {
	t0     time.Time
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []spanRec
}

// A spanRec is one completed span; times are offsets from the
// recorder's start.
type spanRec struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// An openSpan is a started span; end records it. The zero value (from a
// nil recorder) is a no-op.
type openSpan struct {
	r      *recorder
	id     int64
	parent int64
	name   string
	start  time.Time
}

// start opens a span beginning now.
func (r *recorder) start(parent int64, name string) openSpan {
	return r.startAt(parent, name, time.Now())
}

// startAt opens a span that began at t — a request's due time, say, which
// may lie before the moment the span object is created.
func (r *recorder) startAt(parent int64, name string, t time.Time) openSpan {
	if r == nil {
		return openSpan{}
	}
	return openSpan{r: r, id: r.nextID.Add(1), parent: parent, name: name, start: t}
}

// ID returns the span's identifier, the parent for spans it causes (0
// when not recording).
func (s openSpan) ID() int64 { return s.id }

func (s openSpan) end() {
	if s.r == nil {
		return
	}
	rec := spanRec{
		ID:     s.id,
		Parent: s.parent,
		Name:   s.name,
		Start:  s.start.Sub(s.r.t0).Nanoseconds(),
		End:    time.Since(s.r.t0).Nanoseconds(),
	}
	s.r.mu.Lock()
	s.r.spans = append(s.r.spans, rec)
	s.r.mu.Unlock()
}

// timed runs fn inside a span.
func (r *recorder) timed(parent int64, name string, fn func()) {
	sp := r.start(parent, name)
	fn()
	sp.end()
}

// snapshot returns the recorded spans.
func (r *recorder) snapshot() []spanRec {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return slices.Clone(r.spans)
}

// selfTimes returns each span's self time — its duration minus the part
// of its interval covered by its children — grouped by span name.
func selfTimes(spans []spanRec) map[string][]time.Duration {
	children := make(map[int64][]spanRec)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string][]time.Duration)
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], time.Duration(s.End-s.Start-covered(s, children[s.ID])))
	}
	return out
}

// covered returns how much of parent's interval the union of the
// children's intervals covers.
func covered(parent spanRec, kids []spanRec) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	slices.SortFunc(iv, func(a, b [2]int64) int {
		switch {
		case a[0] < b[0]:
			return -1
		case a[0] > b[0]:
			return 1
		}
		return 0
	})
	var total, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
			continue
		}
		curHi = max(curHi, v[1])
	}
	return total + curHi - curLo
}

// writeSpansFile writes the run's spans as JSON lines next to its scratch
// directory, as spans-<workload>.jsonl.
func writeSpansFile(o options, workload string, rec *recorder) error {
	f, err := os.Create(filepath.Join(filepath.Dir(o.data), "spans-"+workload+".jsonl"))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range rec.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
