package main

import "testing"

// The gate's pass/fail decision, without any timing: exactly the limit
// passes, anything past it fails, and a faster "on" run is a pass.
func TestVerdict(t *testing.T) {
	for _, tc := range []struct {
		name     string
		off, on  int64
		wantPct  float64
		wantPass bool
	}{
		{"zero", 1000, 1000, 0, true},
		{"at limit", 1000, 1030, 3, true},
		{"just over", 1000, 1031, 3.1, false},
		{"negative", 1000, 950, -5, true},
	} {
		pct, ok := verdict(tc.off, tc.on)
		if d := pct - tc.wantPct; d > 1e-9 || d < -1e-9 || ok != tc.wantPass {
			t.Errorf("%s: verdict(%d, %d) = %.4f%%, %v; want %.4f%%, %v",
				tc.name, tc.off, tc.on, pct, ok, tc.wantPct, tc.wantPass)
		}
	}
}
