package obs

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"strings"
)

// This file is the request-telemetry pillar's identity layer: a W3C
// trace-context (traceparent) implementation so one request carries one
// trace ID from the client, through admission, the DP solve, and the
// response — and, once tenants shard across daemons (ROADMAP item 1),
// across process boundaries. The format is the Trace Context
// recommendation's single-line header:
//
//	traceparent: 00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01
//	             ^  ^ 16-byte trace-id (32 hex)     ^ 8-byte span-id   ^ flags
//	             version                             (16 hex)
//
// Parsing is strict where it must be (field lengths, hex alphabet,
// all-zero IDs are invalid per the spec) and lenient where the spec
// says to be (unknown future versions are accepted as long as the
// fields we understand are well-formed). A malformed header is never
// propagated: EnsureTraceContext replaces it with a freshly minted
// context, so junk from a client dies at the edge instead of fanning
// out through the trace tree.

// ErrMalformedTraceparent reports a traceparent header that does not
// parse; callers replace the header with a fresh context rather than
// propagating it.
var ErrMalformedTraceparent = errors.New("obs: malformed traceparent")

// A TraceContext is one request's W3C trace identity: the 16-byte trace
// ID shared by every span of the distributed trace, the 8-byte ID of
// the span that produced it (the caller's span on ingest, ours on
// egress), and the trace flags (bit 0: sampled).
type TraceContext struct {
	TraceID [16]byte
	SpanID  [8]byte
	Flags   byte
}

// Valid reports whether the context carries non-zero IDs — the spec
// treats all-zero trace or span IDs as invalid.
func (tc TraceContext) Valid() bool {
	return tc.TraceID != [16]byte{} && tc.SpanID != [8]byte{}
}

// TraceIDString returns the 32-hex-digit trace ID — the value echoed in
// response headers, error envelopes, and flight-recorder entries.
func (tc TraceContext) TraceIDString() string {
	return hex.EncodeToString(tc.TraceID[:])
}

// Traceparent renders the context as a version-00 traceparent header
// value.
func (tc TraceContext) Traceparent() string {
	return fmt.Sprintf("00-%s-%s-%02x",
		hex.EncodeToString(tc.TraceID[:]), hex.EncodeToString(tc.SpanID[:]), tc.Flags)
}

// ParseTraceparent parses a traceparent header value. It accepts
// version-00 headers and, per the spec's forward-compatibility rule,
// higher versions whose leading fields are well-formed (version "ff" is
// explicitly invalid). Anything else — wrong field lengths, uppercase
// or non-hex digits, all-zero IDs, a version-00 header with trailing
// fields — fails with ErrMalformedTraceparent.
func ParseTraceparent(s string) (TraceContext, error) {
	var tc TraceContext
	parts := strings.Split(s, "-")
	if len(parts) < 4 {
		return tc, fmt.Errorf("%w: %d fields", ErrMalformedTraceparent, len(parts))
	}
	ver, ok := hexField(parts[0], 2)
	if !ok || ver == "ff" {
		return tc, fmt.Errorf("%w: version %q", ErrMalformedTraceparent, parts[0])
	}
	if ver == "00" && len(parts) != 4 {
		return tc, fmt.Errorf("%w: version 00 with %d fields", ErrMalformedTraceparent, len(parts))
	}
	traceID, ok := hexField(parts[1], 32)
	if !ok {
		return tc, fmt.Errorf("%w: trace-id %q", ErrMalformedTraceparent, parts[1])
	}
	spanID, ok := hexField(parts[2], 16)
	if !ok {
		return tc, fmt.Errorf("%w: parent-id %q", ErrMalformedTraceparent, parts[2])
	}
	flags, ok := hexField(parts[3], 2)
	if !ok {
		return tc, fmt.Errorf("%w: flags %q", ErrMalformedTraceparent, parts[3])
	}
	hex.Decode(tc.TraceID[:], []byte(traceID))
	hex.Decode(tc.SpanID[:], []byte(spanID))
	var f [1]byte
	hex.Decode(f[:], []byte(flags))
	tc.Flags = f[0]
	if !tc.Valid() {
		return TraceContext{}, fmt.Errorf("%w: all-zero id", ErrMalformedTraceparent)
	}
	return tc, nil
}

// hexField validates a fixed-width lowercase hex field.
func hexField(s string, width int) (string, bool) {
	if len(s) != width {
		return "", false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return "", false
		}
	}
	return s, true
}

// NewTraceContext mints a fresh sampled trace context with random IDs.
func NewTraceContext() TraceContext {
	var tc TraceContext
	// crypto/rand.Read never fails on supported platforms (it aborts the
	// process instead); the error return exists for exotic ones, where
	// falling back to a zero ID would break Valid — retry is pointless,
	// so panic loudly like the runtime would.
	if _, err := rand.Read(tc.TraceID[:]); err != nil {
		panic("obs: crypto/rand unavailable: " + err.Error())
	}
	if _, err := rand.Read(tc.SpanID[:]); err != nil {
		panic("obs: crypto/rand unavailable: " + err.Error())
	}
	tc.Flags = 0x01 // sampled
	return tc
}

// EnsureTraceContext ingests an inbound traceparent header: a
// well-formed header keeps its trace ID (continuing the caller's trace)
// with a freshly minted span ID for this process's root span; a missing
// or malformed header yields a brand-new context. fresh reports whether
// a new trace was started (the inbound value, if any, was discarded).
func EnsureTraceContext(header string) (tc TraceContext, fresh bool) {
	if header != "" {
		if in, err := ParseTraceparent(header); err == nil {
			in.SpanID = NewTraceContext().SpanID
			return in, false
		}
	}
	return NewTraceContext(), true
}
