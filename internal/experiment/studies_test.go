package experiment

import (
	"testing"
	"time"

	"partitionshare/internal/workload"
)

// The §VIII locality-performance correlation: predicted miss ratio must
// correlate strongly with simulated co-run execution time (paper cites
// r = 0.938 over all 1820 groups; we check a sampled subset at reduced
// scale).
func TestCorrelationStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	cfg := workload.TestConfig()
	specs := workload.Specs()
	groups := mustCombinations(t, len(specs), 4)
	// Sample every 60th group for speed: ~30 groups across the range.
	var sample [][]int
	for i := 0; i < len(groups); i += 60 {
		sample = append(sample, groups[i])
	}
	res, err := CorrelationStudy(nil, specs, cfg, sample, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Predicted) != len(sample) || len(res.SimulatedTime) != len(sample) {
		t.Fatalf("lengths %d/%d, want %d", len(res.Predicted), len(res.SimulatedTime), len(sample))
	}
	if res.Pearson < 0.9 {
		t.Errorf("correlation r = %.3f, want >= 0.9 (paper: 0.938)", res.Pearson)
	}
}

func TestCorrelationStudyErrors(t *testing.T) {
	cfg := workload.TestConfig()
	specs := workload.Specs()[:4]
	if _, err := CorrelationStudy(nil, specs, cfg, [][]int{{0, 1}}, 100); err == nil {
		t.Error("single group should error")
	}
	if _, err := CorrelationStudy(nil, specs, cfg, [][]int{{0, 1}, {2, 3}}, 0); err == nil {
		t.Error("zero penalty should error")
	}
	if _, err := CorrelationStudy(nil, specs, cfg, [][]int{{0, 9}, {1, 2}}, 100); err == nil {
		t.Error("invalid member should error")
	}
}

// Coarser granularity must never improve the evaluated solution quality
// and should cut solve time — the paper's §VII-A argument quantified.
func TestGranularityStudy(t *testing.T) {
	res := suite(t)
	cfg := workload.TestConfig()
	groups := mustCombinations(t, len(res.Programs), 4)[:20]
	pts, err := GranularityStudy(res.Programs, cfg, groups, []int{128, 32, 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("got %d points", len(pts))
	}
	// Finest first in our list: quality degrades (weakly) as units shrink.
	for i := 1; i < len(pts); i++ {
		if pts[i].MeanGroupMR < pts[i-1].MeanGroupMR-1e-9 {
			t.Errorf("coarser granularity %d units improved quality (%v < %v) — impossible",
				pts[i].Units, pts[i].MeanGroupMR, pts[i-1].MeanGroupMR)
		}
	}
	// And the fine solve costs more than the coarse one.
	if pts[0].MeanSolveTime < pts[2].MeanSolveTime {
		t.Errorf("fine solve (%v) should cost more than coarse (%v)",
			pts[0].MeanSolveTime, pts[2].MeanSolveTime)
	}
	if pts[0].MeanSolveTime <= 0 || pts[0].MeanSolveTime > time.Second {
		t.Errorf("suspicious solve time %v", pts[0].MeanSolveTime)
	}
}

func TestGranularityStudyErrors(t *testing.T) {
	res := suite(t)
	cfg := workload.TestConfig()
	groups := mustCombinations(t, len(res.Programs), 4)[:2]
	if _, err := GranularityStudy(res.Programs, cfg, nil, []int{8}); err == nil {
		t.Error("no groups should error")
	}
	if _, err := GranularityStudy(res.Programs, cfg, groups, []int{100}); err == nil {
		t.Error("non-dividing unit count should error")
	}
	if _, err := GranularityStudy(res.Programs, cfg, [][]int{{0, 99}}, []int{8}); err == nil {
		t.Error("invalid member should error")
	}
}

// The §VIII policy study: CLOCK tracks LRU; HOTL tracks LRU; random
// replacement departs on LRU-hostile programs.
func TestPolicyStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	cfg := workload.TestConfig()
	specs := workload.Specs()[:4] // the four streamers/loopers
	caps := []int{int(cfg.CacheBlocks()) / 4, int(cfg.CacheBlocks())}
	rows, err := PolicyStudy(nil, specs, cfg, caps)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(specs)*len(caps) {
		t.Fatalf("got %d rows, want %d", len(rows), len(specs)*len(caps))
	}
	for i, r := range rows {
		// Spec-major, capacity-minor, whatever order the workers finish in.
		if s, c := specs[i/len(caps)], caps[i%len(caps)]; r.Program != s.Name || r.Capacity != c {
			t.Errorf("row %d is %s/%d, want %s/%d", i, r.Program, r.Capacity, s.Name, c)
		}
		if r.LRU < 0 || r.LRU > 1 || r.Clock < 0 || r.Clock > 1 || r.Random < 0 || r.Random > 1 {
			t.Fatalf("out-of-range ratios: %+v", r)
		}
		// CLOCK approximates LRU.
		if d := r.Clock - r.LRU; d > 0.05 || d < -0.05 {
			t.Errorf("%s cap %d: CLOCK %v far from LRU %v", r.Program, r.Capacity, r.Clock, r.LRU)
		}
		// HOTL predicts LRU.
		if d := r.HOTL - r.LRU; d > 0.05 || d < -0.05 {
			t.Errorf("%s cap %d: HOTL %v far from LRU %v", r.Program, r.Capacity, r.HOTL, r.LRU)
		}
	}
}

func TestPolicyStudyErrors(t *testing.T) {
	cfg := workload.TestConfig()
	if _, err := PolicyStudy(nil, nil, cfg, []int{64}); err == nil {
		t.Error("no specs should error")
	}
	if _, err := PolicyStudy(nil, workload.Specs()[:1], cfg, nil); err == nil {
		t.Error("no capacities should error")
	}
}

// Dynamic (per-epoch) repartitioning must beat the static optimum on the
// antiphase suite, and never lose to it — the §VIII caveat quantified.
func TestEpochStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	cfg := workload.TestConfig()
	specs := workload.PhasedSpecs()
	phaseLen := cfg.TraceLen / 8
	// {4,5} is a contended pair (0.55C peak each — no static split can
	// cover both); the quads are contended in aggregate; {2,3} fits
	// statically, where dynamic only pays repartition churn.
	groups := [][]int{{2, 3}, {4, 5}, {0, 1, 2, 3}, {4, 5, 6, 7}}
	rows, err := EpochStudy(nil, specs, cfg, groups, phaseLen)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(groups) {
		t.Fatalf("got %d rows", len(rows))
	}
	wins := 0
	for _, r := range rows {
		// Dynamic may lose a little on uncontended groups: every resize
		// evicts the shrunk program's blocks, which must re-warm next
		// phase. Allow that churn as a small absolute term.
		if r.DynamicMR > r.StaticMR*1.02+0.002 {
			t.Errorf("group %v: dynamic (%.4f) worse than static (%.4f)", r.Members, r.DynamicMR, r.StaticMR)
		}
		if r.DynamicMR < r.StaticMR*0.98 {
			wins++
		}
	}
	if wins < 2 {
		t.Errorf("dynamic repartitioning won only %d/4 groups; want the contended ones", wins)
	}
}

func TestEpochStudyErrors(t *testing.T) {
	cfg := workload.TestConfig()
	if _, err := EpochStudy(nil, nil, cfg, [][]int{{0}}, 100); err == nil {
		t.Error("no specs should error")
	}
	if _, err := EpochStudy(nil, workload.PhasedSpecs(), cfg, [][]int{{0, 99}}, cfg.TraceLen/8); err == nil {
		t.Error("invalid member should error")
	}
}
