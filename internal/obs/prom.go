package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// This file renders a registry snapshot in the Prometheus text
// exposition format (version 0.0.4), the lingua franca of metrics
// scrapers and the registry's only live exposition. The output is a
// pure function of the snapshot with fully deterministic ordering —
// names sorted within each section, buckets in bound order — so a
// golden file can pin the exact byte stream.
//
// Name mapping: the registry's dotted.snake names become underscore
// names (service.plan.requests → service_plan_requests); counters gain
// the conventional _total suffix. The original dotted name is preserved
// in the HELP line, so a dashboard query can be traced back to the
// constant that registered it. Histogram buckets convert from the
// registry's per-bucket counts to Prometheus's cumulative le-labeled
// form; elided empty buckets are harmless there because cumulative
// counts are monotone over any subset of bounds.

// PromContentType is the exposition content type scrapers expect.
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

// WritePrometheus renders the snapshot in Prometheus text format.
func WritePrometheus(w io.Writer, snap Snapshot) error {
	names := make([]string, 0, len(snap.Counters))
	for name := range snap.Counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		pn := promName(name) + "_total"
		if _, err := fmt.Fprintf(w, "# HELP %s counter %s\n# TYPE %s counter\n%s %d\n",
			pn, name, pn, pn, snap.Counters[name]); err != nil {
			return err
		}
	}

	names = names[:0]
	for name := range snap.Gauges {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		pn := promName(name)
		if _, err := fmt.Fprintf(w, "# HELP %s gauge %s\n# TYPE %s gauge\n%s %d\n",
			pn, name, pn, pn, snap.Gauges[name]); err != nil {
			return err
		}
	}

	names = names[:0]
	for name := range snap.Histograms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if err := writePromHistogram(w, name, snap.Histograms[name]); err != nil {
			return err
		}
	}
	return nil
}

func writePromHistogram(w io.Writer, name string, h HistogramSummary) error {
	pn := promName(name)
	if _, err := fmt.Fprintf(w, "# HELP %s histogram %s\n# TYPE %s histogram\n", pn, name, pn); err != nil {
		return err
	}
	// Cumulative buckets in bound order; the summary's buckets are
	// already ascending with +Inf last when present. A +Inf bucket is
	// emitted unconditionally (it must equal _count).
	cum := int64(0)
	for _, b := range h.Buckets {
		if b.Inf {
			break // folded into the unconditional +Inf line below
		}
		cum += b.Count
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", pn, b.LE, cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %d\n%s_count %d\n",
		pn, h.Count, pn, h.Sum, pn, h.Count); err != nil {
		return err
	}
	return nil
}

// promName maps a registry name onto the Prometheus metric-name
// alphabet [a-zA-Z0-9_:], replacing everything else (dots, mostly)
// with underscores.
func promName(name string) string {
	var b strings.Builder
	b.Grow(len(name))
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_', c == ':':
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}
