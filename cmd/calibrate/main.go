// Command calibrate prints the solo behaviour of the synthetic workload
// suite — equal-partition miss ratios, miss-ratio curve shape, convexity,
// and footprint growth — plus gain/loss under sharing for sample co-run
// groups. It is the tool used to tune internal/workload against the
// qualitative facts of the paper's Figure 5.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"partitionshare/internal/compose"
	"partitionshare/internal/experiment"
	"partitionshare/internal/obs"
	"partitionshare/internal/workload"
)

func main() {
	small := flag.Bool("small", false, "use the reduced test geometry")
	group := flag.String("group", "", "comma-separated program names: print per-scheme allocations for that co-run group")
	logLevel := flag.String("log-level", "info", "diagnostic log level: debug|info|warn|error")
	flag.Parse()

	level, err := obs.ParseLogLevel(*logLevel)
	if err != nil {
		fatal(err)
	}
	obs.InitLogging(os.Stderr, level, false)

	cfg := workload.DefaultConfig()
	if *small {
		cfg = workload.TestConfig()
	}
	if *group != "" {
		inspectGroup(cfg, strings.Split(*group, ","))
		return
	}
	progs, err := workload.ProfileAll(nil, workload.Specs(), cfg)
	if err != nil {
		fatal(err)
	}
	equalShare := cfg.Units / 4

	sort.Slice(progs, func(i, j int) bool {
		return progs[i].Curve.MissRatio(equalShare) > progs[j].Curve.MissRatio(equalShare)
	})

	obs.Progressf("%-10s %6s %9s %9s %9s %9s %8s %9s %8s\n",
		"program", "rate", "mr@C/8", "mr@C/4", "mr@C/2", "mr@C", "convex", "fp(n)", "coldRate")
	for _, p := range progs {
		obs.Progressf("%-10s %6.1f %9.5f %9.5f %9.5f %9.5f %8v %9d %8.5f\n",
			p.Name, p.Rate,
			p.Curve.MissRatio(cfg.Units/8),
			p.Curve.MissRatio(equalShare),
			p.Curve.MissRatio(cfg.Units/2),
			p.Curve.MissRatio(cfg.Units),
			p.Curve.IsConvex(),
			p.Fp.M(),
			float64(p.Fp.M())/float64(p.Fp.N()))
	}

	// Gains and losses in a few sample groups: compare natural (shared)
	// with equal partitioning.
	obs.Progressf("\nsample groups (occ = natural occupancy in units, eq share = %d):\n", equalShare)
	groups := [][]int{{0, 1, 2, 3}, {0, 5, 10, 15}, {12, 13, 14, 15}, {0, 10, 11, 12}}
	for _, g := range groups {
		sub := make([]compose.Program, len(g))
		for i, idx := range g {
			sub[i] = compose.Program{Name: progs[idx].Name, Fp: progs[idx].Fp, Rate: progs[idx].Rate}
		}
		occ := compose.NaturalPartitionUnits(sub, cfg.Units, cfg.BlocksPerUnit)
		mrs := compose.SharedMissRatios(sub, float64(cfg.CacheBlocks()))
		obs.Progressf("  group:")
		for i, idx := range g {
			eqMr := progs[idx].Curve.MissRatio(equalShare)
			verdict := "≈"
			if mrs[i] < eqMr*0.95 {
				verdict = "gain"
			} else if mrs[i] > eqMr*1.05 {
				verdict = "lose"
			}
			obs.Progressf(" %s[occ=%d nat=%.5f eq=%.5f %s]", progs[idx].Name, occ[i], mrs[i], eqMr, verdict)
		}
		obs.Progressln()
	}
}

// inspectGroup prints each scheme's allocation and per-program miss ratios
// for one named co-run group.
func inspectGroup(cfg workload.Config, names []string) {
	progs, err := workload.ProfileAll(nil, workload.Specs(), cfg)
	if err != nil {
		fatal(err)
	}
	idx := map[string]int{}
	for i, p := range progs {
		idx[p.Name] = i
	}
	var members []int
	for _, n := range names {
		i, ok := idx[strings.TrimSpace(n)]
		if !ok {
			fatal(fmt.Errorf("unknown program %q", n))
		}
		members = append(members, i)
	}
	gr, err := experiment.EvaluateGroup(progs, members, cfg.Units, cfg.BlocksPerUnit)
	if err != nil {
		fatal(err)
	}
	obs.Progressf("group:")
	for _, m := range members {
		obs.Progressf(" %s", progs[m].Name)
	}
	obs.Progressf("  (units=%d)\n", cfg.Units)
	for s := experiment.Scheme(0); s < experiment.NumSchemes; s++ {
		obs.Progressf("%-17s groupMR=%.5f  alloc=%v  mr=[", s, gr.GroupMR[s], gr.Alloc[s])
		for i := range gr.Members {
			if i > 0 {
				obs.Progressf(" ")
			}
			obs.Progressf("%.5f", gr.ProgramMR(progs, s, i))
		}
		obs.Progressln("]")
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "calibrate:", err)
	os.Exit(1)
}
