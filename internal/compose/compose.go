// Package compose implements the paper's §IV–§V-A: footprint composition
// of co-run programs via stretching (Eq. 9), co-run miss-ratio prediction
// (Eq. 11), and the Natural Cache Partition (NCP) — the cache occupancies
// that free-for-all sharing settles into, which reduce partition-sharing to
// partitioning under the Natural Partition Assumption.
package compose

import (
	"fmt"
	"math"
	"sort"

	"partitionshare/internal/footprint"
)

// Program is one member of a co-run group.
type Program struct {
	Name string
	Fp   footprint.Footprint
	// Rate is the program's access rate (accesses per unit of wall time).
	// Only the ratios between co-run programs matter.
	Rate float64
}

func validate(progs []Program) {
	if len(progs) == 0 {
		panic("compose: empty program group")
	}
	for i := range progs {
		// The negated compare also rejects NaN.
		if r := progs[i].Rate; !(r > 0) || math.IsInf(r, 1) {
			panic(fmt.Sprintf("compose: program %d (%s) has rate %v, want positive and finite", i, progs[i].Name, r))
		}
	}
}

// totalRate returns the sum of access rates.
func totalRate(progs []Program) float64 {
	var r float64
	for i := range progs {
		r += progs[i].Rate
	}
	return r
}

// CombinedFp evaluates the composed footprint of the group at combined
// window length w (Eq. 9): each program's footprint is stretched
// horizontally by its share of the access stream, and the stretched
// footprints add because the programs share no data.
func CombinedFp(progs []Program, w float64) float64 {
	validate(progs)
	r := totalRate(progs)
	var sum float64
	for i := range progs {
		p := &progs[i]
		sum += p.Fp.At(w * p.Rate / r)
	}
	return sum
}

// TotalData returns the sum of the programs' total footprints (distinct
// data), the ceiling of the composed footprint.
func TotalData(progs []Program) float64 {
	var m float64
	for i := range progs {
		m += float64(progs[i].Fp.M())
	}
	return m
}

// FillTime returns the combined window length w at which the composed
// footprint reaches c blocks, by bisection (the composed footprint is
// monotone). It returns +Inf when c exceeds the group's total data and
// panics when c is negative or NaN.
func FillTime(progs []Program, c float64) float64 {
	validate(progs)
	return fillTime(progs, c, cursors(progs))
}

// cursors returns one footprint cursor per program.
func cursors(progs []Program) []footprint.Cursor {
	cur := make([]footprint.Cursor, len(progs))
	for i := range progs {
		cur[i] = progs[i].Fp.Cursor()
	}
	return cur
}

// fillTime is FillTime on validated programs, evaluating each program's
// stretched footprint through its cursor cur[i]. Every probe's arguments
// bound those of the probes after it — a probe at or above c caps them, a
// probe below c floors them — so each probe narrows the cursors' tail-sum
// brackets, and the final window hi lies inside every bracket. The probe
// sequence and the member-order sums are CombinedFp's, bit for bit.
func fillTime(progs []Program, c float64, cur []footprint.Cursor) float64 {
	if c < 0 || math.IsNaN(c) {
		panic(fmt.Sprintf("compose: invalid cache size %v", c))
	}
	if c == 0 {
		return 0
	}
	if c >= TotalData(progs) {
		return math.Inf(1)
	}
	r := totalRate(progs)
	// Upper bound: the w at which every stretched argument covers its
	// whole trace.
	hi := 1.0
	for i := range progs {
		p := &progs[i]
		if b := float64(p.Fp.N()) * r / p.Rate; b > hi {
			hi = b
		}
	}
	lo := 0.0
	for i := 0; i < 100 && hi-lo > 1e-9*math.Max(1, hi); i++ {
		mid := (lo + hi) / 2
		var sum float64
		for j := range progs {
			sum += cur[j].At(mid * progs[j].Rate / r)
		}
		if sum >= c {
			hi = mid
			for j := range cur {
				cur[j].NarrowUpper()
			}
		} else {
			lo = mid
			for j := range cur {
				cur[j].NarrowLower()
			}
		}
	}
	return hi
}

// NaturalPartition returns the natural cache partition for a shared cache
// of c blocks: occ[i] is program i's steady-state occupancy, the stretched
// footprint of program i at the combined fill time of c (Fig. 4). When the
// cache is larger than the group's total data, each program's occupancy is
// its total footprint (and the cache is not full). Occupancies sum to
// min(c, total data) up to bisection tolerance.
func NaturalPartition(progs []Program, c float64) []float64 {
	validate(progs)
	occ := make([]float64, len(progs))
	if c >= TotalData(progs) {
		for i := range progs {
			occ[i] = float64(progs[i].Fp.M())
		}
		return occ
	}
	cur := cursors(progs)
	w := fillTime(progs, c, cur)
	r := totalRate(progs)
	for i := range progs {
		occ[i] = cur[i].At(w * progs[i].Rate / r)
	}
	return occ
}

// NaturalPartitionUnits converts the natural partition to whole cache
// units (blocksPerUnit blocks each) summing exactly to units, using
// largest-remainder rounding. Cache size in blocks is units*blocksPerUnit.
func NaturalPartitionUnits(progs []Program, units int, blocksPerUnit int64) []int {
	if units <= 0 || blocksPerUnit <= 0 {
		panic(fmt.Sprintf("compose: invalid geometry units=%d blocksPerUnit=%d", units, blocksPerUnit))
	}
	occ := NaturalPartition(progs, float64(units)*float64(blocksPerUnit))
	return RoundToUnits(occ, units, blocksPerUnit)
}

// RoundToUnits scales block occupancies to whole units summing exactly to
// units via largest-remainder rounding. If the occupancies sum to less than
// the cache (cache bigger than data), the leftover units are spread to the
// largest remainders as well, keeping the total equal to units.
func RoundToUnits(occBlocks []float64, units int, blocksPerUnit int64) []int {
	type rem struct {
		idx  int
		frac float64
	}
	out := make([]int, len(occBlocks))
	rems := make([]rem, len(occBlocks))
	assigned := 0
	for i, b := range occBlocks {
		u := b / float64(blocksPerUnit)
		fl := math.Floor(u)
		out[i] = int(fl)
		assigned += int(fl)
		rems[i] = rem{i, u - fl}
	}
	left := units - assigned
	if left < 0 {
		// Rounding overshoot cannot happen (floors underestimate), but a
		// caller could pass occupancies exceeding the cache; trim from
		// the smallest fractions.
		sort.Slice(rems, func(a, b int) bool { return rems[a].frac < rems[b].frac })
		for k := 0; left < 0 && k < len(rems); k++ {
			if out[rems[k].idx] > 0 {
				out[rems[k].idx]--
				left++
			}
		}
		return out
	}
	sort.Slice(rems, func(a, b int) bool {
		// Strict ordering comparisons only: an epsilon here would break
		// the comparator's transitivity, and exact fractional ties must
		// fall through to the deterministic index order.
		if rems[a].frac > rems[b].frac {
			return true
		}
		if rems[a].frac < rems[b].frac {
			return false
		}
		return rems[a].idx < rems[b].idx
	})
	for k := 0; left > 0; k = (k + 1) % len(rems) {
		out[rems[k].idx]++
		left--
	}
	return out
}

// SharedMissRatios predicts each program's miss ratio in a freely shared
// cache of c blocks under the Natural Partition Assumption: program i
// performs as in a private partition of its natural occupancy,
// mr_i(occ_i).
func SharedMissRatios(progs []Program, c float64) []float64 {
	occ := NaturalPartition(progs, c)
	out := make([]float64, len(progs))
	for i := range progs {
		out[i] = progs[i].Fp.MissRatio(occ[i])
	}
	return out
}

// SharedGroupMissRatio predicts the group's overall miss ratio (misses per
// combined access) in a freely shared cache of c blocks, Eq. 11: the
// rate-weighted mean of the per-program miss ratios, which equals
// fp(w+1) − c evaluated on the composed footprint.
func SharedGroupMissRatio(progs []Program, c float64) float64 {
	validate(progs)
	mrs := SharedMissRatios(progs, c)
	r := totalRate(progs)
	var sum float64
	for i := range progs {
		sum += mrs[i] * progs[i].Rate / r
	}
	return sum
}
