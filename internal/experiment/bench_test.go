package experiment

import (
	"context"
	"testing"

	"partitionshare/internal/workload"
)

// BenchmarkEvaluateGroup is the per-group cost of a Table I sweep: one
// four-program group under all six schemes at DefaultConfig (1024 units
// of 4 blocks), with the prepared cost rows Run builds once per sweep. The
// members are the suite's first four programs.
func BenchmarkEvaluateGroup(b *testing.B) {
	cfg := workload.DefaultConfig()
	progs, err := workload.ProfileAll(nil, workload.Specs()[:4], cfg)
	if err != nil {
		b.Fatal(err)
	}
	rows := prepareRows(CostTable(progs, cfg.Units))
	members := []int{0, 1, 2, 3}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := evaluateGroup(ctx, progs, members, cfg.Units, cfg.BlocksPerUnit, rows); err != nil {
			b.Fatal(err)
		}
	}
}
