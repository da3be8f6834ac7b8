package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// This file is the request flight recorder: fixed-size rings of the
// most recent, slowest, and errored/shed requests, kept in memory so a
// 429/503/504 observed in a dashboard can be diagnosed after the fact
// — which request, which tenant, which trace ID, where the time went
// stage by stage — without any external tracing backend. It serves at
// /debug/requests on both the daemon's API listener and the -debug-addr
// server. Records come from the span model (span.go): a request root
// started by StartRequest owns its in-progress RequestRecord, each
// direct child span appends its stage timing on End, and the root's End
// files the finished record here. Like the registry, tracer, and
// sampler, the recorder is process-global behind an Enable/Active pair
// and nil-safe end to end.

// DefaultFlightCap is the per-ring capacity when a caller passes a
// non-positive one. Three rings × 64 records × ~300 B is well under
// 100 KiB — always-on territory.
const DefaultFlightCap = 64

// A StageTiming is one named request stage and the time it consumed:
// the End of a span started directly under a request root (span.go).
type StageTiming struct {
	Name  string `json:"name"`
	DurNS int64  `json:"dur_ns"`
}

// A RequestRecord is one completed request as the flight recorder keeps
// it: identity (method, route, tenant), result (status, error code,
// admission outcome), correlation (trace ID), and timing (start offset
// from the recorder's creation, duration, per-stage breakdown).
type RequestRecord struct {
	Method  string `json:"method"`
	Route   string `json:"route"`
	Tenant  string `json:"tenant,omitempty"`
	Status  int    `json:"status"`
	Code    string `json:"code,omitempty"` // envelope error code, "" on success
	Outcome string `json:"outcome,omitempty"`
	TraceID string `json:"trace_id,omitempty"`
	// Epoch is the plan epoch the request served or observed (0 when the
	// request did not touch a published plan), correlating a
	// /debug/requests entry with the /debug/epochs timeline.
	Epoch   int64         `json:"epoch,omitempty"`
	StartNS int64         `json:"start_ns"`
	DurNS   int64         `json:"dur_ns"`
	Stages  []StageTiming `json:"stages,omitempty"`
}

// A recordRing is a fixed-capacity overwrite ring of RequestRecords.
type recordRing struct {
	buf  []RequestRecord
	head int
	n    int
}

func (r *recordRing) add(rec RequestRecord) {
	r.buf[r.head] = rec
	r.head = (r.head + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
}

// ordered returns newest-first.
func (r *recordRing) ordered() []RequestRecord {
	out := make([]RequestRecord, 0, r.n)
	for i := 1; i <= r.n; i++ {
		out = append(out, r.buf[(r.head-i+len(r.buf))%len(r.buf)])
	}
	return out
}

// A FlightRecorder keeps the three request rings. The zero value is not
// usable; call NewFlightRecorder. All methods are safe for concurrent
// use and no-ops on a nil receiver.
type FlightRecorder struct {
	start time.Time // zero point of record StartNS offsets

	mu      sync.Mutex
	recent  recordRing
	errored recordRing
	slowest []RequestRecord // descending by DurNS, at most cap entries
	cap     int
	total   int64
	errors  int64
}

// NewFlightRecorder returns a recorder whose rings hold up to capN
// records each (<= 0 means DefaultFlightCap).
func NewFlightRecorder(capN int) *FlightRecorder {
	if capN <= 0 {
		capN = DefaultFlightCap
	}
	return &FlightRecorder{
		start:   time.Now(),
		recent:  recordRing{buf: make([]RequestRecord, capN)},
		errored: recordRing{buf: make([]RequestRecord, capN)},
		cap:     capN,
	}
}

// Record files one completed request into the recent ring, the errored
// ring when its status is an error (>= 400, including 499), and the
// slowest list when it ranks.
func (fr *FlightRecorder) Record(rec RequestRecord) {
	if fr == nil {
		return
	}
	fr.mu.Lock()
	defer fr.mu.Unlock()
	fr.total++
	fr.recent.add(rec)
	if rec.Status >= 400 {
		fr.errors++
		fr.errored.add(rec)
	}
	// Insertion into the descending slowest list: find the rank, shift,
	// drop the tail past cap. cap is small (tens), so O(cap) is fine.
	i := len(fr.slowest)
	for i > 0 && fr.slowest[i-1].DurNS < rec.DurNS {
		i--
	}
	if i >= fr.cap {
		return
	}
	if len(fr.slowest) < fr.cap {
		fr.slowest = append(fr.slowest, RequestRecord{})
	}
	copy(fr.slowest[i+1:], fr.slowest[i:])
	fr.slowest[i] = rec
}

// A FlightSnapshot is the recorder's frozen, export-ready state:
// newest-first rings, the descending slowest list, and lifetime totals.
type FlightSnapshot struct {
	Total   int64           `json:"total"`
	Errors  int64           `json:"errors"`
	Recent  []RequestRecord `json:"recent,omitempty"`
	Slowest []RequestRecord `json:"slowest,omitempty"`
	Errored []RequestRecord `json:"errored,omitempty"`
}

// Snapshot freezes the recorder (zero snapshot on nil).
func (fr *FlightRecorder) Snapshot() FlightSnapshot {
	if fr == nil {
		return FlightSnapshot{}
	}
	fr.mu.Lock()
	defer fr.mu.Unlock()
	return FlightSnapshot{
		Total:   fr.total,
		Errors:  fr.errors,
		Recent:  fr.recent.ordered(),
		Slowest: append([]RequestRecord(nil), fr.slowest...),
		Errored: fr.errored.ordered(),
	}
}

// activeFlight is the process-global flight recorder, nil unless a
// command enabled one; mirrors the registry/tracer/sampler pattern.
var activeFlight atomic.Pointer[FlightRecorder]

// EnableFlightRecorder installs fr as the process-global recorder;
// EnableFlightRecorder(nil) disables recording again.
func EnableFlightRecorder(fr *FlightRecorder) { activeFlight.Store(fr) }

// ActiveFlightRecorder returns the process-global recorder, or nil.
func ActiveFlightRecorder() *FlightRecorder { return activeFlight.Load() }
