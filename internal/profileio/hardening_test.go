package profileio

import (
	"errors"
	"math"
	"runtime"
	"strings"
	"testing"
)

// The parse-failure taxonomy: everything unreadable wraps ErrCorrupt,
// except a recognised magic with an unknown version, which wraps
// ErrUnsupportedVersion so callers can distinguish "upgrade the tool"
// from "the file is damaged".
func TestReadErrorTaxonomy(t *testing.T) {
	p := sampleProfile(t)
	var b strings.Builder
	if err := Write(&b, p); err != nil {
		t.Fatal(err)
	}
	good := b.String()

	corrupt := []string{
		"",
		"nothotl v1\n",
		good[:len(good)/2],
		strings.Replace(good, "rate 2.5", "rate NaN", 1),
		strings.Replace(good, "rate 2.5", "rate +Inf", 1),
		strings.Replace(good, "rate 2.5", "rate 0", 1),
		// Histogram longer than the access count: k > n is implausible.
		"hotlprof v1\nname x\nrate 1\nn 3 m 2\nreuse 9999999\n1 1\n",
		// Count overflow bait: two entries for the same value summing
		// past int64.
		"hotlprof v1\nname x\nrate 1\nn 3 m 2\nreuse 2\n1 9223372036854775807\n1 9223372036854775807\nfirst 1\n1 2\nlast 1\n1 2\n",
	}
	for i, c := range corrupt {
		if _, err := Read(strings.NewReader(c)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("corrupt case %d: error = %v, want ErrCorrupt", i, err)
		}
	}

	// A hostile histogram size must fail as corrupt without allocating in
	// proportion to the declared 2^28 entries.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Read(strings.NewReader(hostileSizeBody))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrCorrupt) {
		t.Errorf("hostile size: error = %v, want ErrCorrupt", err)
	}
	if d := after.TotalAlloc - before.TotalAlloc; d >= 16<<20 {
		t.Errorf("hostile size: allocated %d bytes, want < 16 MB", d)
	}

	if _, err := Read(strings.NewReader("hotlprof v2\n")); !errors.Is(err, ErrUnsupportedVersion) {
		t.Errorf("v2 error = %v, want ErrUnsupportedVersion", err)
	}
	if _, err := Read(strings.NewReader("hotlprof v2\n")); errors.Is(err, ErrCorrupt) {
		t.Error("version mismatch must not also claim the file is corrupt")
	}
}

// Validate must reject NaN/Inf/non-positive rates before they poison the
// footprint math, and Write must refuse to serialize such a profile.
func TestValidateRejectsBadRate(t *testing.T) {
	p := sampleProfile(t)
	for _, rate := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -3} {
		bad := p
		bad.Rate = rate
		if err := bad.Validate(); err == nil {
			t.Errorf("rate %v: Validate accepted it", rate)
		}
		var b strings.Builder
		if err := Write(&b, bad); err == nil {
			t.Errorf("rate %v: Write accepted it", rate)
		}
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("valid profile rejected: %v", err)
	}
}
