package mrc

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"partitionshare/internal/footprint"
	"partitionshare/internal/trace"
)

func mk(name string, accesses int64, mr ...float64) Curve {
	return Curve{Name: name, MR: mr, Accesses: accesses, AccessRate: 1}
}

func TestValidate(t *testing.T) {
	if err := mk("ok", 100, 0.5, 0.2, 0.1).Validate(); err != nil {
		t.Errorf("valid curve rejected: %v", err)
	}
	bad := []Curve{
		mk("short", 100, 0.5),
		mk("noacc", 0, 0.5, 0.2),
		mk("neg", 100, 0.5, -0.1),
		mk("big", 100, 1.5, 0.2),
		mk("nan", 100, math.NaN(), 0.2),
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("curve %q should fail validation", c.Name)
		}
	}
}

func TestMissRatioClamping(t *testing.T) {
	c := mk("c", 10, 0.9, 0.5, 0.1)
	if c.MissRatio(-5) != 0.9 {
		t.Error("negative units should clamp to 0")
	}
	if c.MissRatio(99) != 0.1 {
		t.Error("oversize units should clamp to C")
	}
	if c.Units() != 2 {
		t.Errorf("Units = %d, want 2", c.Units())
	}
}

func TestMissCount(t *testing.T) {
	c := mk("c", 1000, 0.9, 0.5, 0.1)
	if got := c.MissCount(1); got != 500 {
		t.Errorf("MissCount(1) = %v, want 500", got)
	}
}

// TestMissCounts holds the row form and MarginalGain to MissCount, clamps
// on both sides included.
func TestMissCounts(t *testing.T) {
	c := mk("c", 1000, 0.9, 0.5, 0.1)
	for lo := -3; lo <= 4; lo++ {
		dst := make([]float64, 5)
		c.MissCounts(lo, dst)
		for i, got := range dst {
			if want := c.MissCount(lo + i); got != want {
				t.Errorf("MissCounts(%d)[%d] = %v, want %v", lo, i, got, want)
			}
		}
		if got, want := c.MarginalGain(lo), c.MissCount(lo)-c.MissCount(lo+1); got != want {
			t.Errorf("MarginalGain(%d) = %v, want %v", lo, got, want)
		}
	}
}

func TestMonotoneRepair(t *testing.T) {
	c := mk("c", 10, 0.5, 0.6, 0.3, 0.4, 0.2)
	r := c.MonotoneRepair()
	want := []float64{0.6, 0.6, 0.4, 0.4, 0.2}
	for i := range want {
		if math.Abs(r.MR[i]-want[i]) > 1e-12 {
			t.Fatalf("repaired = %v, want %v", r.MR, want)
		}
	}
	// Original unchanged.
	if c.MR[0] != 0.5 {
		t.Error("MonotoneRepair mutated receiver")
	}
}

func TestIsConvex(t *testing.T) {
	if !mk("lin", 10, 1.0, 0.75, 0.5, 0.25, 0.0).IsConvex() {
		t.Error("linear curve should be convex")
	}
	if !mk("cvx", 10, 1.0, 0.5, 0.3, 0.2, 0.15).IsConvex() {
		t.Error("diminishing-returns curve should be convex")
	}
	// Working-set cliff: flat then drop — not convex.
	if mk("cliff", 10, 1.0, 1.0, 1.0, 0.0, 0.0).IsConvex() {
		t.Error("cliff curve should not be convex")
	}
}

func TestConvexMinorant(t *testing.T) {
	c := mk("cliff", 10, 1.0, 1.0, 1.0, 0.1, 0.1)
	h := c.ConvexMinorant()
	if !h.IsConvex() {
		t.Fatalf("minorant not convex: %v", h.MR)
	}
	for u := range h.MR {
		if h.MR[u] > c.MR[u]+1e-12 {
			t.Fatalf("minorant above curve at %d: %v > %v", u, h.MR[u], c.MR[u])
		}
	}
	// Endpoints preserved.
	if h.MR[0] != 1.0 || math.Abs(h.MR[4]-0.1) > 1e-12 {
		t.Errorf("endpoints changed: %v", h.MR)
	}
}

func TestConvexMinorantIdempotentOnConvex(t *testing.T) {
	c := mk("lin", 10, 1.0, 0.75, 0.5, 0.25, 0.0)
	h := c.ConvexMinorant()
	for u := range h.MR {
		if math.Abs(h.MR[u]-c.MR[u]) > 1e-12 {
			t.Fatalf("minorant changed a convex curve at %d: %v vs %v", u, h.MR[u], c.MR[u])
		}
	}
}

func TestConvexMinorantProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, seed^77))
		mr := make([]float64, 20)
		v := 1.0
		for i := range mr {
			mr[i] = v
			v *= rng.Float64()*0.5 + 0.5
		}
		c := Curve{Name: "r", MR: mr, Accesses: 1, AccessRate: 1}
		h := c.ConvexMinorant()
		if !h.IsConvex() {
			return false
		}
		for u := range h.MR {
			if h.MR[u] > c.MR[u]+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestFromFootprint(t *testing.T) {
	tr := trace.Generate(trace.NewLoop(256, 1), 4096)
	fp := footprint.FromTrace(tr)
	c := FromFootprint("loop", fp, 8, 64, 1.0)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.Units() != 8 {
		t.Fatalf("units = %d, want 8", c.Units())
	}
	if c.Accesses != 4096 {
		t.Errorf("accesses = %d, want 4096", c.Accesses)
	}
	// Loop of 256 blocks = 4 units: thrash below, cold-only at >= 4 units.
	if c.MR[2] < 0.9 {
		t.Errorf("MR[2] = %v, want ~1 (thrash)", c.MR[2])
	}
	if c.MR[6] > 0.1 {
		t.Errorf("MR[6] = %v, want ~0 (fits)", c.MR[6])
	}
}

func TestFromFootprintPanics(t *testing.T) {
	fp := footprint.FromTrace(trace.Trace{0, 1, 0})
	for i, f := range []func(){
		func() { FromFootprint("x", fp, 0, 64, 1) },
		func() { FromFootprint("x", fp, 8, 0, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

func TestGroupMissRatio(t *testing.T) {
	a := mk("a", 1000, 0.5, 0.4, 0.3)
	b := mk("b", 3000, 0.2, 0.1, 0.0)
	// a gets 0 units (mr 0.5, 500 misses), b gets 2 (mr 0, 0 misses).
	got := GroupMissRatio([]Curve{a, b}, []int{0, 2})
	if want := 500.0 / 4000.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("GroupMissRatio = %v, want %v", got, want)
	}
}

func TestGroupMissRatioPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	GroupMissRatio([]Curve{mk("a", 1, 1, 0)}, []int{0, 1})
}
