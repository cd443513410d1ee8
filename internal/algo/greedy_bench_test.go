package algo

import (
	"testing"

	"knives/internal/attrset"
	"knives/internal/cost"
	"knives/internal/partition"
	"knives/internal/schema"
)

// benchGreedy reports evaluations per second, the metric the incremental
// kernel is built to raise: a candidate merge should cost O(affected
// queries), not O(workload x parts).
func benchGreedy(b *testing.B, merge func(schema.TableWorkload, cost.Model, []attrset.Set, *Counter) ([]attrset.Set, float64)) {
	bench := schema.TPCH(10)
	tw := bench.Workload.ForTable(bench.Table("lineitem"))
	m := cost.NewHDD(cost.DefaultDisk())
	start := partition.Column(tw.Table).Parts
	var evals int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var c Counter
		merge(tw, m, start, &c)
		evals += c.Count()
	}
	b.ReportMetric(float64(evals)/b.Elapsed().Seconds(), "evals/s")
}

func BenchmarkGreedyMergeIncremental(b *testing.B) { benchGreedy(b, GreedyMerge) }
