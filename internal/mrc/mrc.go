// Package mrc defines miss-ratio curves at partition-unit granularity —
// the interface between the locality substrate (footprint / stack-distance
// analysis) and the partitioning optimizers.
//
// The paper partitions an 8 MB cache in 8 KB units (128 cache blocks of
// 64 B), so a curve here is the miss ratio sampled at 0, 1, ..., C units.
// The optimizers minimize miss *counts* (miss ratio times accesses,
// paper Eq. 15), so each curve also carries its program's access count.
package mrc

import (
	"errors"
	"fmt"
	"math"

	"partitionshare/internal/footprint"
)

// ErrNonMonotone reports a curve that increases with cache size beyond the
// caller's tolerance; every ValidateMonotone failure wraps it.
var ErrNonMonotone = errors.New("mrc: non-monotone curve")

// Curve is one program's miss ratio as a function of allocated cache units.
type Curve struct {
	// Name identifies the program (for reports).
	Name string
	// MR[u] is the miss ratio with u units of cache; len(MR) = C+1 where
	// C is the number of units in the whole cache.
	MR []float64
	// Accesses is the program's total memory access count n_i.
	Accesses int64
	// AccessRate is the program's accesses per unit time (used for
	// footprint stretching in co-run composition).
	AccessRate float64
}

// Validate checks structural invariants: at least two points, ratios in
// [0,1], and a positive access count.
func (c Curve) Validate() error {
	if len(c.MR) < 2 {
		return fmt.Errorf("mrc: curve %q has %d points, need >= 2", c.Name, len(c.MR))
	}
	if c.Accesses <= 0 {
		return fmt.Errorf("mrc: curve %q has non-positive access count %d", c.Name, c.Accesses)
	}
	for u, r := range c.MR {
		if math.IsNaN(r) || r < 0 || r > 1 {
			return fmt.Errorf("mrc: curve %q has invalid miss ratio %v at %d units", c.Name, r, u)
		}
	}
	return nil
}

// ValidateMonotone checks that the curve is non-increasing within tol:
// MR[u+1] may exceed MR[u] by at most tol. Fully-associative LRU curves
// are non-increasing by the inclusion property, so a violation beyond
// measurement noise means the curve was corrupted in transit or built from
// inconsistent data; failures wrap ErrNonMonotone. Use MonotoneRepair to
// clamp small violations instead of rejecting them.
func (c Curve) ValidateMonotone(tol float64) error {
	if math.IsNaN(tol) || tol < 0 {
		return fmt.Errorf("mrc: invalid monotonicity tolerance %v", tol)
	}
	for u := 1; u < len(c.MR); u++ {
		if c.MR[u] > c.MR[u-1]+tol {
			return fmt.Errorf("%w: curve %q rises %v -> %v at %d units (tol %v)",
				ErrNonMonotone, c.Name, c.MR[u-1], c.MR[u], u, tol)
		}
	}
	return nil
}

// Units returns C, the number of cache units the curve covers.
func (c Curve) Units() int { return len(c.MR) - 1 }

// MissRatio returns the miss ratio at u units, clamping u to [0, C].
func (c Curve) MissRatio(u int) float64 {
	if u < 0 {
		u = 0
	}
	if u >= len(c.MR) {
		u = len(c.MR) - 1
	}
	return c.MR[u]
}

// MissCount returns the expected miss count at u units: mr(u) · accesses.
func (c Curve) MissCount(u int) float64 {
	return c.MissRatio(u) * float64(c.Accesses)
}

// MissCounts writes MissCount(lo+i) into dst[i] for every i in dst: the
// row form of MissCount for callers that scan a range of allocations.
func (c Curve) MissCounts(lo int, dst []float64) {
	acc := float64(c.Accesses)
	// Only u outside [0, C] takes MissRatio's clamp, so the entries
	// inside it are one branch-free loop over the MR column.
	i := 0
	for ; i < len(dst) && lo+i < 0; i++ {
		dst[i] = c.MissRatio(lo+i) * acc
	}
	if i < len(dst) && lo+i < len(c.MR) {
		body := dst[i:min(len(dst), i+len(c.MR)-(lo+i))]
		mr := c.MR[lo+i:][:len(body)]
		for j := range body {
			body[j] = mr[j] * acc
		}
		i += len(body)
	}
	for ; i < len(dst); i++ {
		dst[i] = c.MissRatio(lo+i) * acc
	}
}

// MarginalGain returns MissCount(u) − MissCount(u+1), the misses the
// (u+1)-th unit saves. STTW calls it once per granted unit, so it takes a
// pointer: a Curve is too large to pass in registers, and a value
// receiver, which copied it on every call, made STTW ~1.15× slower.
func (c *Curve) MarginalGain(u int) float64 {
	if uint(u) < uint(len(c.MR)-1) {
		acc := float64(c.Accesses)
		return c.MR[u]*acc - c.MR[u+1]*acc
	}
	return c.MissCount(u) - c.MissCount(u+1)
}

// MonotoneRepair returns a copy with the curve forced non-increasing by a
// right-to-left running minimum. Fully-associative LRU curves are
// non-increasing by the inclusion property; measurement noise or synthetic
// construction can violate it slightly.
func (c Curve) MonotoneRepair() Curve {
	out := c.clone()
	for u := len(out.MR) - 2; u >= 0; u-- {
		if out.MR[u] < out.MR[u+1] {
			out.MR[u] = out.MR[u+1]
		}
	}
	return out
}

// IsConvex reports whether the curve is convex (non-increasing marginal
// gain), the assumption STTW optimality requires.
func (c Curve) IsConvex() bool {
	for u := 1; u < len(c.MR)-1; u++ {
		// Convex iff MR[u] <= (MR[u-1] + MR[u+1]) / 2 at every interior
		// point, i.e. second difference >= 0.
		if c.MR[u-1]+c.MR[u+1]-2*c.MR[u] < -1e-12 {
			return false
		}
	}
	return true
}

// ConvexMinorant returns the greatest convex curve lying at or below c
// (its lower convex hull). It is what a convex optimizer effectively
// assumes the program's behaviour to be; comparing partitions computed on
// the hull versus the true curve quantifies the cost of the convexity
// assumption (§VII-B, STTW discussion).
func (c Curve) ConvexMinorant() Curve {
	out := c.clone()
	n := len(out.MR)
	// Andrew's monotone chain on points (u, MR[u]), keeping the lower hull.
	type pt struct{ x, y float64 }
	hull := make([]pt, 0, n)
	for u := 0; u < n; u++ {
		p := pt{float64(u), out.MR[u]}
		for len(hull) >= 2 {
			a, b := hull[len(hull)-2], hull[len(hull)-1]
			// Pop b if it lies on or above segment a-p.
			if (b.y-a.y)*(p.x-a.x) >= (p.y-a.y)*(b.x-a.x) {
				hull = hull[:len(hull)-1]
			} else {
				break
			}
		}
		hull = append(hull, p)
	}
	// Interpolate the hull back onto the unit grid.
	seg := 0
	for u := 0; u < n; u++ {
		x := float64(u)
		for seg+1 < len(hull)-1 && hull[seg+1].x <= x {
			seg++
		}
		a, b := hull[seg], hull[seg+1]
		// Guard the exact quantity we divide by: IEEE subtraction of
		// finite doubles yields 0 iff the operands are equal, so this is
		// the degenerate-segment check, not a rounding-sensitive compare.
		if b.x-a.x == 0 {
			out.MR[u] = math.Min(a.y, b.y)
			continue
		}
		t := (x - a.x) / (b.x - a.x)
		out.MR[u] = a.y + t*(b.y-a.y)
	}
	return out
}

func (c Curve) clone() Curve {
	out := c
	out.MR = make([]float64, len(c.MR))
	copy(out.MR, c.MR)
	return out
}

// FromFootprint samples a HOTL footprint into a unit-granularity curve.
// The cache has units partition units of blocksPerUnit cache blocks each.
func FromFootprint(name string, fp footprint.Footprint, units int, blocksPerUnit int64, accessRate float64) Curve {
	if units <= 0 || blocksPerUnit <= 0 {
		panic(fmt.Sprintf("mrc: invalid geometry units=%d blocksPerUnit=%d", units, blocksPerUnit))
	}
	// Sample the miss ratio smoothed over one unit width: identical to
	// the instantaneous mr for exact profiles, and the right local
	// derivative for sampled (staircase) footprints.
	c := Curve{
		Name:       name,
		MR:         fp.MissRatioWindowCurve(units, blocksPerUnit),
		Accesses:   fp.N(),
		AccessRate: accessRate,
	}
	return c.MonotoneRepair()
}

// GroupMissRatio returns the overall miss ratio of a set of programs given
// each one's allocation in units: total misses over total accesses.
func GroupMissRatio(curves []Curve, alloc []int) float64 {
	if len(curves) != len(alloc) {
		panic(fmt.Sprintf("mrc: %d curves but %d allocations", len(curves), len(alloc)))
	}
	var misses, accesses float64
	for i, c := range curves {
		misses += c.MissCount(alloc[i])
		accesses += float64(c.Accesses)
	}
	if accesses == 0 {
		return 0
	}
	return misses / accesses
}
