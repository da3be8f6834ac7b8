package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// HTTP surface of the plan-lifecycle layer: the epoch history endpoint
// (GET /v1/plan/history), the change feed (GET /v1/plan/changes, both
// long-poll and SSE), and the human-readable /debug/epochs timeline.
// Both feed modes subscribe before reading history and serve events
// from the audit log, which publishEpoch writes before it publishes to
// the feed — so a wakeup can never observe the feed ahead of history,
// and no transition can slip between the backlog and the live stream.

// planHistoryResponse is GET /v1/plan/history's body: the retained
// epoch records after ?since_epoch, plus the newest epoch so a client
// can resume from it. Gap reports that the log's retention has already
// dropped records the client asked for (its next_epoch after since was
// not since+1); the client's view has a hole no replay can fill.
type planHistoryResponse struct {
	LastEpoch int64         `json:"last_epoch"`
	Gap       bool          `json:"gap,omitempty"`
	Events    []EpochRecord `json:"events"`
}

// sinceEpochParam parses ?since_epoch. Absent returns def; a value
// below -1 or malformed is a client error.
func sinceEpochParam(r *http.Request, def int64) (int64, error) {
	raw := r.URL.Query().Get("since_epoch")
	if raw == "" {
		return def, nil
	}
	v, err := strconv.ParseInt(raw, 10, 64)
	if err != nil || v < -1 {
		return 0, fmt.Errorf("service: invalid since_epoch %q", raw)
	}
	return v, nil
}

// historyGap reports whether events resumed later than since+1 — the
// retention window has already dropped part of what the client missed.
func historyGap(since int64, events []EpochRecord) bool {
	return since >= 0 && len(events) > 0 && events[0].Provenance.Epoch > since+1
}

func (s *Service) handlePlanHistory(w http.ResponseWriter, r *http.Request) error {
	since, err := sinceEpochParam(r, -1)
	if err != nil {
		return err
	}
	events := s.audit.History(since)
	last := s.audit.LastEpoch()
	telemetryFrom(r.Context()).setEpoch(last)
	writeJSON(w, http.StatusOK, planHistoryResponse{
		LastEpoch: last,
		Gap:       historyGap(since, events),
		Events:    events,
	})
	return nil
}

// handlePlanChanges serves the change feed. Default mode is long-poll:
// the request returns as soon as an epoch newer than ?since_epoch
// exists (immediately, when history already has one), or with an empty
// event list once ?wait_ms expires — wait_ms is capped by the default
// request deadline, exactly like ?deadline_ms, so a poll can never pin
// a connection longer than any other request. ?stream=sse (or an
// Accept: text/event-stream header) upgrades to a server-sent-event
// stream instead. since_epoch defaults to the newest epoch — "changes
// from now on".
func (s *Service) handlePlanChanges(w http.ResponseWriter, r *http.Request) error {
	since, err := sinceEpochParam(r, s.audit.LastEpoch())
	if err != nil {
		return err
	}
	if r.URL.Query().Get("stream") == "sse" ||
		strings.Contains(r.Header.Get("Accept"), "text/event-stream") {
		return s.streamPlanChanges(w, r, since)
	}

	wait := s.cfg.DefaultDeadline
	if raw := r.URL.Query().Get("wait_ms"); raw != "" {
		ms, err := strconv.ParseInt(raw, 10, 64)
		if err != nil || ms < 0 {
			return fmt.Errorf("service: invalid wait_ms %q", raw)
		}
		if req := time.Duration(ms) * time.Millisecond; req < wait {
			wait = req
		}
	}

	// Subscribe before consulting history: an epoch landing between the
	// two is then either already in history or guaranteed to wake us.
	sub := s.feed.Subscribe()
	defer sub.Close()
	respond := func() error {
		events := s.audit.History(since)
		last := s.audit.LastEpoch()
		telemetryFrom(r.Context()).setEpoch(last)
		writeJSON(w, http.StatusOK, planHistoryResponse{
			LastEpoch: last,
			Gap:       historyGap(since, events),
			Events:    events,
		})
		return nil
	}
	if len(s.audit.History(since)) > 0 {
		return respond()
	}
	wctx, cancel := context.WithTimeout(r.Context(), wait)
	defer cancel()
	if _, _, err := sub.Next(wctx); err != nil {
		switch {
		case errors.Is(wctx.Err(), context.DeadlineExceeded) && r.Context().Err() == nil:
			return respond() // wait window over: an empty poll, not an error
		case errors.Is(err, ErrFeedClosed):
			return fmt.Errorf("plan change feed: %w", ErrDraining)
		default:
			return err
		}
	}
	return respond()
}

// streamPlanChanges is the SSE mode: the history backlog after since,
// then every live epoch as an "epoch" event, with a "gap" event
// whenever this subscriber's buffer overflowed (the client re-syncs
// from /v1/plan/history). The stream ends when the client disconnects
// or the feed shuts down (drain); per the feed's contract it never
// back-pressures the publisher.
func (s *Service) streamPlanChanges(w http.ResponseWriter, r *http.Request, since int64) error {
	sub := s.feed.Subscribe()
	defer sub.Close()
	backlog := s.audit.History(since)
	telemetryFrom(r.Context()).setEpoch(s.audit.LastEpoch())

	writeSSEHead(w)
	lastSent := since
	send := func(event string, v any) error {
		if err := writeSSEEvent(w, event, v); err != nil {
			return err
		}
		return nil
	}
	if historyGap(since, backlog) {
		if err := send("gap", map[string]any{"since_epoch": since}); err != nil {
			return nil
		}
	}
	for _, ev := range backlog {
		if err := send("epoch", ev); err != nil {
			return nil
		}
		lastSent = ev.Provenance.Epoch
	}
	flushSSE(w)
	for {
		recs, gap, err := sub.Next(r.Context())
		if err != nil {
			return nil // client gone or feed closed: the stream just ends
		}
		if gap {
			if err := send("gap", map[string]any{"since_epoch": lastSent}); err != nil {
				return nil
			}
		}
		for _, ev := range recs {
			if ev.Provenance.Epoch <= lastSent {
				continue // already delivered via the backlog
			}
			if err := send("epoch", ev); err != nil {
				return nil
			}
			lastSent = ev.Provenance.Epoch
		}
		flushSSE(w)
	}
}

// writeSSEHead commits the SSE response head: the event-stream content
// type and a 200, after which the connection is a one-way event pipe.
func writeSSEHead(w http.ResponseWriter) {
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-store")
	h.Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
}

// writeSSEEvent frames one named event with a JSON data payload.
func writeSSEEvent(w http.ResponseWriter, event string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
	return err
}

// flushSSE pushes buffered events down the wire between waits.
func flushSSE(w http.ResponseWriter) {
	if f, ok := w.(http.Flusher); ok {
		f.Flush()
	}
}

// serveEpochsDebug renders the retained epoch timeline as text, newest
// last — the human pairing of /debug/requests (whose records carry the
// epoch they served) for triage without JSON tooling.
func (s *Service) serveEpochsDebug(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	events := s.audit.History(-1)
	fmt.Fprintf(w, "plan epochs (retained %d, last epoch %d)\n\n", len(events), s.audit.LastEpoch())
	for _, ev := range events {
		p := ev.Provenance
		fmt.Fprintf(w, "epoch %d  %s  cause=%s solver=%s compute=%s digest=%s trace=%s\n",
			p.Epoch, time.Unix(0, p.UnixNS).UTC().Format(time.RFC3339Nano),
			p.Cause, p.SolverPath, time.Duration(p.ComputeNS), p.InputDigest, p.TraceID)
		d := ev.Diff
		fmt.Fprintf(w, "  moved=%d units", d.UnitsMoved)
		if len(d.Gained) > 0 {
			fmt.Fprintf(w, "  gained=%v", d.Gained)
		}
		if len(d.Lost) > 0 {
			fmt.Fprintf(w, "  lost=%v", d.Lost)
		}
		fmt.Fprintln(w)
		for _, td := range d.Deltas {
			if td.DeltaUnits == 0 {
				continue
			}
			fmt.Fprintf(w, "    %-24s %4d -> %4d  (%+d)\n", td.Tenant, td.FromUnits, td.ToUnits, td.DeltaUnits)
		}
		fmt.Fprintln(w)
	}
}
