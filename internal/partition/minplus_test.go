package partition

import (
	"encoding/binary"
	"math"
	"math/rand/v2"
	"testing"
)

// minPlusValues spans the kernel's precondition: +0, subnormals, negatives,
// large magnitudes (whose sums overflow to ±Inf), the inf sentinel and +Inf.
// NaN and −0 are excluded, and −Inf too, since +Inf + −Inf is NaN.
var minPlusValues = []float64{
	0, 1, -1, 0.5, -0.75, 3, 7.25, 1e-3, 123456.789,
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 1e-310, -2.5e-312,
	1e300, -1e300, 1e308, -1e308, math.MaxFloat64, -math.MaxFloat64,
	math.Inf(1),
}

// checkMinPlus requires minPlus and minPlusGeneric to agree to the bit.
func checkMinPlus(t *testing.T, a, b []float64) {
	t.Helper()
	got, want := minPlus(a, b), minPlusGeneric(a, b)
	if math.Float64bits(got) != math.Float64bits(want) {
		n := len(a)
		if n > 16 {
			a, b = a[:16], b[:16] // keep the report readable
		}
		t.Fatalf("len %d: minPlus = %v (%#x), minPlusGeneric = %v (%#x)\na starts %v\nb starts %v",
			n, got, math.Float64bits(got), want, math.Float64bits(want), a, b[:len(a)])
	}
}

func TestMinPlusMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewPCG(24, 1))
	draw := func() float64 {
		if rng.IntN(3) == 0 {
			return (rng.Float64() - 0.5) * 1e6
		}
		return minPlusValues[rng.IntN(len(minPlusValues))]
	}
	lengths := []int{1025}
	for n := 0; n <= 70; n++ {
		lengths = append(lengths, n)
	}
	for _, n := range lengths {
		for offA := 0; offA < 4; offA++ {
			for offB := 0; offB < 4; offB++ {
				bufA := make([]float64, offA+n)
				bufB := make([]float64, offB+n+3) // b may run past a's length
				for rep := 0; rep < 4; rep++ {
					for i := range bufA {
						bufA[i] = draw()
					}
					for i := range bufB {
						bufB[i] = draw()
					}
					checkMinPlus(t, bufA[offA:], bufB[offB:])
				}
				// A unique minimum at every position reaches each
				// accumulator lane, the pair loop and the odd tail.
				if n > 70 {
					continue
				}
				a, b := bufA[offA:], bufB[offB:]
				for k := 0; k < n; k++ {
					for i := range a {
						a[i], b[i] = 1, 2
					}
					a[k] = -1
					checkMinPlus(t, a, b)
					if got := minPlus(a, b); got != 1 {
						t.Fatalf("len %d, minimum at %d: minPlus = %v, want 1", n, k, got)
					}
				}
			}
		}
	}

	// Sums at or above the sentinel keep it, as the strict-< scan does.
	for _, v := range []float64{math.MaxFloat64, math.Inf(1)} {
		a := []float64{v, v, v, v, v, v, v, v, v, v, v}
		b := []float64{0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0}
		checkMinPlus(t, a, b)
		if got := minPlus(a, b); got != inf {
			t.Fatalf("all sums >= sentinel (%v): minPlus = %v, want the sentinel", v, got)
		}
	}
	if got := minPlus(nil, nil); got != inf {
		t.Fatalf("empty: minPlus = %v, want the sentinel", got)
	}
}

func TestMinPlusShortOperandPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("minPlus with b shorter than a did not panic")
		}
	}()
	minPlus(make([]float64, 5), make([]float64, 4))
}

// FuzzMinPlus diffs the kernel against minPlusGeneric on arbitrary bit
// patterns, mapped into the precondition: NaN becomes +0, −0 becomes +0
// and −Inf becomes +Inf. The two offset bytes shift each operand's start.
func FuzzMinPlus(f *testing.F) {
	seed := make([]byte, 0, 8*40)
	for _, v := range minPlusValues {
		seed = binary.LittleEndian.AppendUint64(seed, math.Float64bits(v))
		seed = binary.LittleEndian.AppendUint64(seed, math.Float64bits(-v/3))
	}
	f.Add(seed, uint8(0), uint8(0))
	f.Add(seed, uint8(1), uint8(3))
	f.Add(seed[:8*7], uint8(2), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, offA, offB uint8) {
		vals := make([]float64, len(data)/8)
		for i := range vals {
			v := math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
			switch {
			case v != v, v == 0:
				v = 0
			case math.IsInf(v, -1):
				v = math.Inf(1)
			}
			vals[i] = v
		}
		half := len(vals) / 2
		a, b := vals[:half], vals[half:]
		if o := int(offA % 4); o <= len(a) {
			a = a[o:]
		}
		if o := int(offB % 4); o <= len(b) {
			b = b[o:]
		}
		if len(b) < len(a) {
			a = a[:len(b)]
		}
		checkMinPlus(t, a, b)
	})
}
