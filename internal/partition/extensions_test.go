package partition

import (
	"context"
	"math"
	"math/rand/v2"
	"testing"

	"partitionshare/internal/mrc"
)

func randProblem(seed uint64, n, units int) Problem {
	rng := rand.New(rand.NewPCG(seed, seed*97))
	curves := make([]mrc.Curve, n)
	for p := range curves {
		curves[p] = randCurve(rng, "p", units)
	}
	return Problem{Curves: curves, Units: units}
}

// The OptimizeParallel tests below exercise the cancellable solve that
// replaced it, OptimizeContext, against Optimize: the same optimum bit for
// bit across sizes, Minimax, bounds and infeasible bounds.

func TestOptimizeParallelMatchesSequential(t *testing.T) {
	for seed := uint64(1); seed <= 15; seed++ {
		pr := randProblem(seed, int(seed%4)+2, int(seed%40)+8)
		seq, err := Optimize(pr)
		if err != nil {
			t.Fatal(err)
		}
		got, err := OptimizeContext(context.Background(), pr)
		if err != nil {
			t.Fatal(err)
		}
		if !sameBits(got, seq) {
			t.Errorf("seed %d: context %v/%v vs sequential %v/%v",
				seed, got.Objective, got.Alloc, seq.Objective, seq.Alloc)
		}
		if got.Alloc.Total() != pr.Units {
			t.Errorf("seed %d: alloc sums to %d", seed, got.Alloc.Total())
		}
	}
}

func TestOptimizeParallelMinimax(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		pr := randProblem(seed, 3, 16)
		pr.Combine = Minimax
		seq, err := Optimize(pr)
		if err != nil {
			t.Fatal(err)
		}
		got, err := OptimizeContext(context.Background(), pr)
		if err != nil {
			t.Fatal(err)
		}
		if !sameBits(got, seq) {
			t.Errorf("seed %d: minimax context %v/%v vs sequential %v/%v",
				seed, got.Objective, got.Alloc, seq.Objective, seq.Alloc)
		}
	}
}

func TestOptimizeParallelWithBounds(t *testing.T) {
	pr := randProblem(3, 3, 20)
	pr.MinAlloc = []int{2, 0, 5}
	pr.MaxAlloc = []int{10, 20, 20}
	seq, err := Optimize(pr)
	if err != nil {
		t.Fatal(err)
	}
	got, err := OptimizeContext(context.Background(), pr)
	if err != nil {
		t.Fatal(err)
	}
	if !sameBits(got, seq) {
		t.Errorf("bounded: context %v/%v vs sequential %v/%v", got.Objective, got.Alloc, seq.Objective, seq.Alloc)
	}
	for p, u := range got.Alloc {
		if u < pr.MinAlloc[p] || u > pr.MaxAlloc[p] {
			t.Errorf("alloc %v violates bounds", got.Alloc)
		}
	}
}

func TestOptimizeParallelInfeasible(t *testing.T) {
	pr := randProblem(1, 2, 4)
	pr.MinAlloc = []int{3, 3}
	if _, err := OptimizeContext(context.Background(), pr); err == nil {
		t.Fatal("expected error")
	}
}

func TestIncrementalMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 11))
	units := 24
	curves := []mrc.Curve{
		randCurve(rng, "a", units),
		randCurve(rng, "b", units),
		randCurve(rng, "c", units),
		randCurve(rng, "d", units),
	}
	inc := NewIncremental(units)
	for i, c := range curves {
		if err := inc.Push(c); err != nil {
			t.Fatal(err)
		}
		got, err := inc.Solve()
		if err != nil {
			t.Fatal(err)
		}
		want, err := Optimize(Problem{Curves: curves[:i+1], Units: units})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got.Objective-want.Objective) > 1e-9 {
			t.Fatalf("after %d pushes: incremental %v vs batch %v", i+1, got.Objective, want.Objective)
		}
	}
	// Pop back down and re-check each prefix.
	for i := len(curves) - 1; i >= 1; i-- {
		if err := inc.Pop(); err != nil {
			t.Fatal(err)
		}
		got, err := inc.Solve()
		if err != nil {
			t.Fatal(err)
		}
		want, _ := Optimize(Problem{Curves: curves[:i], Units: units})
		if math.Abs(got.Objective-want.Objective) > 1e-9 {
			t.Fatalf("after pop to %d: incremental %v vs batch %v", i, got.Objective, want.Objective)
		}
	}
	if inc.Len() != 1 {
		t.Fatalf("Len = %d, want 1", inc.Len())
	}
}

func TestIncrementalPushPopScenario(t *testing.T) {
	// Scheduler scenario: try candidate partners for a fixed base pair.
	rng := rand.New(rand.NewPCG(9, 3))
	units := 16
	base := []mrc.Curve{randCurve(rng, "x", units), randCurve(rng, "y", units)}
	inc := NewIncremental(units)
	for _, c := range base {
		if err := inc.Push(c); err != nil {
			t.Fatal(err)
		}
	}
	for trial := 0; trial < 5; trial++ {
		cand := randCurve(rng, "cand", units)
		if err := inc.Push(cand); err != nil {
			t.Fatal(err)
		}
		got, err := inc.Solve()
		if err != nil {
			t.Fatal(err)
		}
		want, _ := Optimize(Problem{Curves: append(append([]mrc.Curve{}, base...), cand), Units: units})
		if math.Abs(got.Objective-want.Objective) > 1e-9 {
			t.Fatalf("trial %d: incremental %v vs batch %v", trial, got.Objective, want.Objective)
		}
		if err := inc.Pop(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestIncrementalErrors(t *testing.T) {
	inc := NewIncremental(8)
	if err := inc.Pop(); err == nil {
		t.Error("Pop on empty should error")
	}
	if _, err := inc.Solve(); err == nil {
		t.Error("Solve on empty should error")
	}
	if err := inc.Push(mrc.Curve{Name: "bad"}); err == nil {
		t.Error("Push of invalid curve should error")
	}
}

func TestNewIncrementalPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewIncremental(0)
}

func BenchmarkIncrementalPush1024(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 2))
	c := randCurve(rng, "p", 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inc := NewIncremental(1024)
		if err := inc.Push(c); err != nil {
			b.Fatal(err)
		}
	}
}
