package experiment

import (
	"math"
	"sync"
	"testing"

	"partitionshare/internal/partition"
	"partitionshare/internal/workload"
)

var (
	suiteOnce sync.Once
	suiteRes  Result
	suiteErr  error
)

// suite runs the full 1820-group evaluation once at test geometry.
func suite(t *testing.T) Result {
	t.Helper()
	suiteOnce.Do(func() {
		cfg := workload.TestConfig()
		progs, err := workload.ProfileAll(nil, workload.Specs(), cfg)
		if err != nil {
			suiteErr = err
			return
		}
		suiteRes, suiteErr = Run(nil, progs, 4, cfg.Units, cfg.BlocksPerUnit, RunOpts{})
	})
	if suiteErr != nil {
		t.Fatal(suiteErr)
	}
	return suiteRes
}

func mustCombinations(t *testing.T, n, k int) [][]int {
	t.Helper()
	cs, err := Combinations(n, k)
	if err != nil {
		t.Fatalf("Combinations(%d, %d): %v", n, k, err)
	}
	return cs
}

func TestCombinations(t *testing.T) {
	if got := len(mustCombinations(t, 16, 4)); got != 1820 {
		t.Fatalf("C(16,4) = %d, want 1820", got)
	}
	if got := len(mustCombinations(t, 4, 4)); got != 1 {
		t.Fatalf("C(4,4) = %d, want 1", got)
	}
	if got := len(mustCombinations(t, 5, 1)); got != 5 {
		t.Fatalf("C(5,1) = %d, want 5", got)
	}
	// Lexicographic order and distinct members.
	combos := mustCombinations(t, 5, 3)
	for _, c := range combos {
		if !(c[0] < c[1] && c[1] < c[2]) {
			t.Fatalf("combo %v not strictly increasing", c)
		}
	}
}

func TestCombinationsErrors(t *testing.T) {
	for i, args := range [][2]int{{3, 4}, {-1, 1}, {5, -1}} {
		if _, err := Combinations(args[0], args[1]); err == nil {
			t.Errorf("case %d: Combinations(%d, %d) expected error", i, args[0], args[1])
		}
	}
}

func TestRunProducesAllGroups(t *testing.T) {
	res := suite(t)
	if len(res.Groups) != 1820 {
		t.Fatalf("got %d groups, want 1820", len(res.Groups))
	}
	for g, gr := range res.Groups {
		if len(gr.Members) != 4 {
			t.Fatalf("group %d has %d members", g, len(gr.Members))
		}
		for s := Scheme(0); s < NumSchemes; s++ {
			if len(gr.Alloc[s]) != 4 {
				t.Fatalf("group %d scheme %v: missing per-program data", g, s)
			}
			total := 0
			for _, u := range gr.Alloc[s] {
				total += u
			}
			if total != res.Units {
				t.Fatalf("group %d scheme %v: alloc sums to %d, want %d", g, s, total, res.Units)
			}
			if gr.GroupMR[s] < 0 || gr.GroupMR[s] > 1 || math.IsNaN(gr.GroupMR[s]) {
				t.Fatalf("group %d scheme %v: bad miss ratio %v", g, s, gr.GroupMR[s])
			}
		}
	}
}

// The DP's defining property: Optimal is at least as good as every other
// scheme in every single group.
func TestOptimalDominatesEverywhere(t *testing.T) {
	res := suite(t)
	for g, gr := range res.Groups {
		opt := gr.GroupMR[Optimal]
		for s := Scheme(0); s < NumSchemes; s++ {
			if gr.GroupMR[s] < opt-1e-12 {
				t.Fatalf("group %d: scheme %v (%v) beats Optimal (%v)", g, s, gr.GroupMR[s], opt)
			}
		}
	}
}

// Baseline optimization never makes any member worse than its baseline
// (§VI), and never worsens the group.
func TestBaselineConstraintsHold(t *testing.T) {
	res := suite(t)
	tol := 1 + partition.DefaultBaselineTolerance
	for g, gr := range res.Groups {
		for i := range gr.Members {
			if gr.ProgramMR(res.Programs, EqualBaseline, i) > gr.ProgramMR(res.Programs, Equal, i)*tol+1e-12 {
				t.Fatalf("group %d member %d: equal baseline worsened a program", g, i)
			}
			if gr.ProgramMR(res.Programs, NaturalBaseline, i) > gr.ProgramMR(res.Programs, Natural, i)*tol+1e-12 {
				t.Fatalf("group %d member %d: natural baseline worsened a program", g, i)
			}
		}
		if gr.GroupMR[EqualBaseline] > gr.GroupMR[Equal]+1e-12 {
			t.Fatalf("group %d: equal baseline worsened the group", g)
		}
		if gr.GroupMR[NaturalBaseline] > gr.GroupMR[Natural]+1e-12 {
			t.Fatalf("group %d: natural baseline worsened the group", g)
		}
	}
}

// Paper Table I shape: Optimal improves Equal far more than it improves
// Natural, and baseline-equal recovers much of Equal's loss while
// baseline-natural barely improves Natural.
func TestTableIShape(t *testing.T) {
	res := suite(t)
	rows := TableI(res)
	byScheme := map[Scheme]ImprovementRow{}
	for _, r := range rows {
		byScheme[r.Baseline] = r
		if r.Max < r.Avg || r.Avg < 0 {
			t.Errorf("%v: inconsistent stats %+v", r.Baseline, r)
		}
	}
	if byScheme[Equal].Avg <= byScheme[Natural].Avg {
		t.Errorf("improvement over Equal (%.3f) should exceed improvement over Natural (%.3f)",
			byScheme[Equal].Avg, byScheme[Natural].Avg)
	}
	if byScheme[EqualBaseline].Avg >= byScheme[Equal].Avg {
		t.Errorf("equal-baseline (%.3f) should close part of Equal's gap (%.3f)",
			byScheme[EqualBaseline].Avg, byScheme[Equal].Avg)
	}
	// Natural baseline barely improves Natural: the two rows are close.
	if d := byScheme[Natural].Avg - byScheme[NaturalBaseline].Avg; d < 0 || d > 0.20 {
		t.Errorf("natural vs natural-baseline gap %.3f out of expected narrow range", d)
	}
	// STTW loses visibly in a nontrivial share of groups.
	if byScheme[STTW].AtLeast10 < 0.05 {
		t.Errorf("STTW should be >=10%% worse than Optimal in a nontrivial share of groups, got %.3f",
			byScheme[STTW].AtLeast10)
	}
}

func TestFormatTableI(t *testing.T) {
	res := suite(t)
	out := FormatTableI(TableI(res))
	for _, want := range []string{"Equal", "Natural baseline", "STTW", "Max", "Median"} {
		if !contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (func() bool {
		for i := 0; i+len(sub) <= len(s); i++ {
			if s[i:i+len(sub)] == sub {
				return true
			}
		}
		return false
	})()
}

func TestGroupSeriesSorted(t *testing.T) {
	res := suite(t)
	series := GroupSeries(res, []Scheme{Optimal, Natural, STTW})
	opt := series[Optimal]
	if len(opt) != len(res.Groups) {
		t.Fatalf("series length %d, want %d", len(opt), len(res.Groups))
	}
	for i := 1; i < len(opt); i++ {
		if opt[i] < opt[i-1] {
			t.Fatal("optimal series not sorted ascending")
		}
	}
	// Natural and STTW are pointwise >= Optimal.
	for i := range opt {
		if series[Natural][i] < opt[i]-1e-12 || series[STTW][i] < opt[i]-1e-12 {
			t.Fatalf("series point %d below optimal", i)
		}
	}
}

func TestProgramSeriesCoverage(t *testing.T) {
	res := suite(t)
	// Each program appears in C(15,3) = 455 groups.
	series := ProgramSeries(res, 0, []Scheme{Equal, Natural, Optimal})
	for s, v := range series {
		if len(v) != 455 {
			t.Fatalf("scheme %v: series length %d, want 455", s, len(v))
		}
	}
	// Equal miss ratio is constant per program.
	eq := series[Equal]
	for _, v := range eq {
		if v != eq[0] {
			t.Fatal("equal-partition miss ratio should be constant across groups")
		}
	}
}

// Figure 5 narrative: lbm mostly gains from sharing; perlbench and namd
// mostly lose.
func TestGainLossNarrative(t *testing.T) {
	res := suite(t)
	idx := map[string]int{}
	for i, p := range res.Programs {
		idx[p.Name] = i
	}
	gain, _, loss := GainLoss(res, idx["lbm"], 0.02)
	if gain <= loss {
		t.Errorf("lbm: gain %d vs loss %d, want mostly gains", gain, loss)
	}
	gain, _, loss = GainLoss(res, idx["perlbench"], 0.02)
	if loss <= gain {
		t.Errorf("perlbench: gain %d vs loss %d, want mostly losses", gain, loss)
	}
	gain, _, loss = GainLoss(res, idx["namd"], 0.02)
	if loss <= gain {
		t.Errorf("namd: gain %d vs loss %d, want mostly losses", gain, loss)
	}
}

// §VII-B: Optimal is unfair — for some programs it usually helps (sphinx3)
// and for namd it usually hurts, relative to Natural.
func TestUnfairnessNarrative(t *testing.T) {
	res := suite(t)
	idx := map[string]int{}
	for i, p := range res.Programs {
		idx[p.Name] = i
	}
	// namd is almost always made worse (its misses are cheap, so the DP
	// strips it below an equal share).
	worse, total := UnfairnessCount(res, idx["namd"], Equal)
	if total != 455 {
		t.Fatalf("namd appears in %d groups, want 455", total)
	}
	if worse*2 < total {
		t.Errorf("namd: worse than Equal in %d/%d under Optimal, want majority", worse, total)
	}
	// sphinx3 is almost always made better (its affordable cliff is a
	// high-value DP target).
	worseNat, _ := UnfairnessCount(res, idx["sphinx3"], Natural)
	worseEq, _ := UnfairnessCount(res, idx["sphinx3"], Equal)
	if worseNat > total/5 || worseEq > total/5 {
		t.Errorf("sphinx3: worse in %d/%d (vs Natural) and %d/%d (vs Equal), want rarely worse",
			worseNat, total, worseEq, total)
	}
}

func TestEvaluateGroupErrors(t *testing.T) {
	cfg := workload.TestConfig()
	progs, err := workload.ProfileAll(nil, workload.Specs()[:2], cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := EvaluateGroup(progs, nil, cfg.Units, cfg.BlocksPerUnit); err == nil {
		t.Error("expected error for empty group")
	}
	if _, err := EvaluateGroup(progs, []int{0, 5}, cfg.Units, cfg.BlocksPerUnit); err == nil {
		t.Error("expected error for invalid member")
	}
	if _, err := Run(nil, progs, 3, cfg.Units, cfg.BlocksPerUnit, RunOpts{}); err == nil {
		t.Error("expected error for oversized group")
	}
}
