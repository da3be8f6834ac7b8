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

	"partitionshare/internal/obs"
)

// HTTP surface of the plan-lifecycle layer: the epoch history endpoint
// (GET /v1/plan/history), the change feed (GET /v1/plan/changes, both
// long-poll and SSE), and the human-readable /debug/epochs timeline.
// All three serve the audit log, which publishEpoch appends to before
// it wakes the feed, so every mode sees the same epochs and the same
// gaps.

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
	return s.writeHistory(w, r, since, s.audit.History(since))
}

// writeHistory answers with events, the history read after since, and
// the newest audited epoch.
func (s *Service) writeHistory(w http.ResponseWriter, r *http.Request, since int64, events []EpochRecord) error {
	last := s.audit.LastEpoch()
	obs.RequestFrom(r.Context()).SetEpoch(last)
	writeJSON(w, http.StatusOK, planHistoryResponse{
		LastEpoch: last,
		Gap:       historyGap(since, events),
		Events:    events,
	})
	return nil
}

// handlePlanChanges serves the change feed from the audit history, in
// one loop for both modes: read the history after since, send what it
// holds (flagging a hole before it as a gap, exactly as
// /v1/plan/history does), otherwise wait for the feed's next wake-up.
// The default long-poll answers with the first non-empty batch, or with
// an empty event list once ?wait_ms expires — wait_ms is capped by the
// default request deadline, exactly like ?deadline_ms, so a poll can
// never pin a connection longer than any other request. ?stream=sse (or
// an Accept: text/event-stream header) turns it into a server-sent-event
// stream of "epoch" events, with a "gap" event before any hole, until
// the client leaves or the feed shuts down (drain). since_epoch
// defaults to the newest epoch — "changes from now on".
func (s *Service) handlePlanChanges(w http.ResponseWriter, r *http.Request) error {
	since, err := sinceEpochParam(r, s.audit.LastEpoch())
	if err != nil {
		return err
	}
	sse := r.URL.Query().Get("stream") == "sse" ||
		strings.Contains(r.Header.Get("Accept"), "text/event-stream")
	ctx := r.Context()
	if !sse {
		wait, err := millisParam(r, "wait_ms", 0, s.cfg.DefaultDeadline)
		if err != nil {
			return err
		}
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, wait)
		defer cancel()
	}
	// Subscribe before the first history read: an epoch audited after
	// that read is published after it too, so it wakes the next Wait.
	sub := s.feed.Subscribe()
	defer sub.Close()
	if sse {
		obs.RequestFrom(r.Context()).SetEpoch(s.audit.LastEpoch())
		writeSSEHead(w)
	}
	for {
		events := s.audit.History(since)
		if len(events) > 0 {
			if !sse {
				return s.writeHistory(w, r, since, events)
			}
			if err := writeSSEBatch(w, since, events); err != nil {
				return nil // client gone
			}
			since = events[len(events)-1].Provenance.Epoch
		}
		// A wake-up is only a hint: the epoch behind it may be at or
		// below since, or its audit append may have failed, so history
		// decides and the loop waits on.
		err := sub.Wait(ctx)
		switch {
		case err == nil:
		case sse:
			return nil // client gone or feed closed: the stream just ends
		case errors.Is(err, ErrFeedClosed):
			return fmt.Errorf("plan change feed: %w", ErrDraining)
		case errors.Is(err, context.DeadlineExceeded) && r.Context().Err() == nil:
			// The wait window is over: an empty poll, not an error.
			return s.writeHistory(w, r, since, s.audit.History(since))
		default:
			return err
		}
	}
}

// writeSSEBatch writes and flushes one history batch read after since:
// a "gap" event first when the batch does not resume at since+1, then
// one "epoch" event per record.
func writeSSEBatch(w http.ResponseWriter, since int64, events []EpochRecord) error {
	if historyGap(since, events) {
		if err := writeSSEEvent(w, "gap", map[string]any{"since_epoch": since}); err != nil {
			return err
		}
	}
	for _, ev := range events {
		if err := writeSSEEvent(w, "epoch", ev); err != nil {
			return err
		}
	}
	return http.NewResponseController(w).Flush()
}

// writeSSEHead commits and flushes the SSE response head: the
// event-stream content type and a 200, after which the connection is a
// one-way event pipe.
func writeSSEHead(w http.ResponseWriter) {
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-store")
	h.Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	http.NewResponseController(w).Flush()
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
