package experiment

import (
	"fmt"
	"sort"
	"strings"

	"partitionshare/internal/stats"
)

// ImprovementRow is one row of Table I: how much Optimal improves on a
// baseline scheme across all groups.
type ImprovementRow struct {
	Baseline Scheme
	// Max, Avg, Median are relative improvements: (base − opt) / opt.
	Max, Avg, Median float64
	// AtLeast10, AtLeast20 are the fractions of groups improved by at
	// least 10% and 20%.
	AtLeast10, AtLeast20 float64
}

// TableI computes the paper's Table I from a run: the improvement of
// Optimal over the five other schemes.
func TableI(res Result) []ImprovementRow {
	order := []Scheme{Equal, EqualBaseline, Natural, NaturalBaseline, STTW}
	rows := make([]ImprovementRow, 0, len(order))
	for _, s := range order {
		imps := Improvements(res, s)
		sum := stats.Summarize(imps)
		rows = append(rows, ImprovementRow{
			Baseline:  s,
			Max:       sum.Max,
			Avg:       sum.Mean,
			Median:    sum.Median,
			AtLeast10: stats.FractionAtLeast(imps, 0.10),
			AtLeast20: stats.FractionAtLeast(imps, 0.20),
		})
	}
	return rows
}

// Improvements returns the per-group relative improvement of Optimal over
// the given scheme: (scheme − optimal) / optimal.
func Improvements(res Result, s Scheme) []float64 {
	out := make([]float64, len(res.Groups))
	for g, gr := range res.Groups {
		out[g] = stats.Improvement(gr.GroupMR[s], gr.GroupMR[Optimal])
	}
	return out
}

// FormatTableI renders Table I in the paper's layout.
func FormatTableI(rows []ImprovementRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-18s %12s %10s %10s %8s %8s\n",
		"Methods", "Max", "Avg", "Median", ">=10%", ">=20%")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-18s %11.2f%% %9.2f%% %9.2f%% %7.2f%% %7.2f%%\n",
			r.Baseline, r.Max*100, r.Avg*100, r.Median*100, r.AtLeast10*100, r.AtLeast20*100)
	}
	return b.String()
}

// GroupSeries returns each scheme's group miss ratios with groups sorted
// by the Optimal scheme's miss ratio — the data behind Figures 6 and 7.
func GroupSeries(res Result, schemes []Scheme) map[Scheme][]float64 {
	order := make([]int, len(res.Groups))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		return res.Groups[order[a]].GroupMR[Optimal] < res.Groups[order[b]].GroupMR[Optimal]
	})
	out := make(map[Scheme][]float64, len(schemes))
	for _, s := range schemes {
		series := make([]float64, len(order))
		for i, g := range order {
			series[i] = res.Groups[g].GroupMR[s]
		}
		out[s] = series
	}
	return out
}

// ProgramSeries returns, for one program, its per-group miss ratio under
// each scheme across all groups containing it, groups ordered as in the
// run — the data behind Figure 5.
func ProgramSeries(res Result, program int, schemes []Scheme) map[Scheme][]float64 {
	out := make(map[Scheme][]float64, len(schemes))
	for _, s := range schemes {
		var series []float64
		for _, gr := range res.Groups {
			for i, m := range gr.Members {
				if m == program {
					series = append(series, gr.ProgramMR(res.Programs, s, i))
					break
				}
			}
		}
		out[s] = series
	}
	return out
}

// GainLoss counts, for one program, the groups where free-for-all sharing
// (Natural) beats, ties with, or loses to the Equal partition — the
// gainer/loser classification of §VII-B. Ties are within tol relative.
func GainLoss(res Result, program int, tol float64) (gain, tie, loss int) {
	for _, gr := range res.Groups {
		for i, m := range gr.Members {
			if m != program {
				continue
			}
			nat, eq := gr.ProgramMR(res.Programs, Natural, i), gr.ProgramMR(res.Programs, Equal, i)
			switch {
			case nat < eq*(1-tol):
				gain++
			case nat > eq*(1+tol):
				loss++
			default:
				tie++
			}
		}
	}
	return gain, tie, loss
}

// UnfairnessCount counts, for one program, the groups where Optimal makes
// it worse than the given baseline scheme — the §VII-B unfairness
// evidence.
func UnfairnessCount(res Result, program int, baseline Scheme) (worse, total int) {
	for _, gr := range res.Groups {
		for i, m := range gr.Members {
			if m != program {
				continue
			}
			total++
			if gr.ProgramMR(res.Programs, Optimal, i) > gr.ProgramMR(res.Programs, baseline, i)*(1+1e-9) {
				worse++
			}
		}
	}
	return worse, total
}
