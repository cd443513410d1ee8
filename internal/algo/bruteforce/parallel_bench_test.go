package bruteforce

import (
	"testing"

	"knives/internal/cost"
	"knives/internal/schema"
)

// benchLineitem runs the paper's biggest exhaustive search — Lineitem in
// fragment mode, ~4.2M candidates — at a fixed worker count. The
// sequential/parallel pair is the kernel's headline speedup measurement.
func benchLineitem(b *testing.B, workers int) {
	bench := schema.TPCH(10)
	tw := bench.Workload.ForTable(bench.Table("lineitem"))
	m := cost.NewHDD(cost.DefaultDisk())
	bf := &BruteForce{Workers: workers}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := bf.Partition(tw, m)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.Stats.Candidates), "candidates")
	}
}

func BenchmarkLineitemSequential(b *testing.B) { benchLineitem(b, 1) }
func BenchmarkLineitemParallel(b *testing.B)   { benchLineitem(b, 0) }
