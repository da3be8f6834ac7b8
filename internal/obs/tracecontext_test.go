package obs

import (
	"context"
	"errors"
	"strings"
	"testing"
)

// The W3C parser is the trust boundary for client-supplied trace
// identity: anything malformed must be rejected (and, at the ingest
// helper, replaced with a fresh ID) — never crash, never propagate
// junk into the trace tree.
func TestParseTraceparent(t *testing.T) {
	valid := "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	cases := []struct {
		name string
		in   string
		ok   bool
	}{
		{"valid version 00", valid, true},
		{"valid unsampled", "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-00", true},
		{"future version extra field", "cc-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extra", true},
		{"empty", "", false},
		{"garbage", "not-a-traceparent", false},
		{"too few fields", "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7", false},
		{"version 00 extra field", valid + "-junk", false},
		{"version ff", "ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", false},
		{"version one hex digit", "0-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", false},
		{"short trace id", "00-4bf92f3577b34da6a3ce929d0e0e473-00f067aa0ba902b7-01", false},
		{"long trace id", "00-4bf92f3577b34da6a3ce929d0e0e47366-00f067aa0ba902b7-01", false},
		{"uppercase trace id", "00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01", false},
		{"non-hex trace id", "00-4bf92f3577b34da6a3ce929d0e0e473g-00f067aa0ba902b7-01", false},
		{"all-zero trace id", "00-00000000000000000000000000000000-00f067aa0ba902b7-01", false},
		{"all-zero span id", "00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01", false},
		{"short span id", "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b-01", false},
		{"bad flags width", "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-011", false},
		{"non-hex flags", "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-0x", false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := ParseTraceparent(tc.in)
			if tc.ok {
				if err != nil {
					t.Fatalf("ParseTraceparent(%q) = %v, want ok", tc.in, err)
				}
				if !got.Valid() {
					t.Fatalf("parsed context invalid: %+v", got)
				}
				return
			}
			if err == nil {
				t.Fatalf("ParseTraceparent(%q) accepted, want error", tc.in)
			}
			if !errors.Is(err, ErrMalformedTraceparent) {
				t.Fatalf("error %v is not ErrMalformedTraceparent", err)
			}
		})
	}
}

func TestTraceparentRoundTrip(t *testing.T) {
	tc := NewTraceContext()
	if !tc.Valid() {
		t.Fatal("minted context invalid")
	}
	back, err := ParseTraceparent(tc.Traceparent())
	if err != nil {
		t.Fatalf("round trip: %v", err)
	}
	if back != tc {
		t.Fatalf("round trip changed the context: %+v != %+v", back, tc)
	}
	if len(tc.TraceIDString()) != 32 || strings.ToLower(tc.TraceIDString()) != tc.TraceIDString() {
		t.Fatalf("TraceIDString %q not 32 lowercase hex digits", tc.TraceIDString())
	}
}

// EnsureTraceContext is the ingest rule: keep a well-formed caller's
// trace ID (with our own span ID), mint a fresh context otherwise.
func TestEnsureTraceContext(t *testing.T) {
	in := "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	tc, fresh := EnsureTraceContext(in)
	if fresh {
		t.Fatal("well-formed header reported fresh")
	}
	if got := tc.TraceIDString(); got != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Fatalf("trace ID not preserved: %s", got)
	}
	var callerSpan [8]byte
	copy(callerSpan[:], []byte{0x00, 0xf0, 0x67, 0xaa, 0x0b, 0xa9, 0x02, 0xb7})
	if tc.SpanID == callerSpan {
		t.Fatal("ingest must mint a new span ID, not reuse the caller's")
	}

	for _, bad := range []string{"", "garbage", "00-zzz-zzz-zz"} {
		tc, fresh := EnsureTraceContext(bad)
		if !fresh || !tc.Valid() {
			t.Fatalf("EnsureTraceContext(%q) = (%+v, fresh=%v), want a fresh valid context", bad, tc, fresh)
		}
	}

	// Two fresh contexts must not collide (random IDs).
	a, _ := EnsureTraceContext("")
	b, _ := EnsureTraceContext("")
	if a.TraceID == b.TraceID {
		t.Fatal("two fresh contexts share a trace ID")
	}
}

func TestTraceContextPlumbing(t *testing.T) {
	if id := TraceIDFrom(nil); id != "" {
		t.Fatalf("TraceIDFrom(nil) = %q, want empty", id)
	}
	if id := TraceIDFrom(context.Background()); id != "" {
		t.Fatalf("untraced context reported trace ID %q", id)
	}
	tc := NewTraceContext()
	ctx, root := StartRequest(nil, "obs.req", "test", tc)
	defer root.End()
	if TraceIDFrom(ctx) != tc.TraceIDString() {
		t.Fatal("TraceIDFrom mismatch")
	}
}
