package trojan

import (
	"fmt"
	"testing"

	"knives/internal/algo"
	"knives/internal/schema"
)

// fullWidth returns the first bench-shaped workload (fragmentation 0.75,
// seeds in order) over r columns that references all of them.
func fullWidth(tb testing.TB, r int) schema.TableWorkload {
	tb.Helper()
	for seed := int64(1); seed <= 64; seed++ {
		if tw := benchShaped(tb, r, 0.75, seed, false); tw.ReferencedAttrs().Len() == r {
			return tw
		}
	}
	tb.Fatalf("no seed references all %d columns", r)
	return schema.TableWorkload{}
}

var sink algo.Result

// BenchmarkTrojanPartition times one whole search at the widths the
// end-to-end benchmark posts. candidates/s is the machine-independent
// 2^r candidate count over the measured time.
func BenchmarkTrojanPartition(b *testing.B) {
	for _, r := range []int{12, 16, 20} {
		b.Run(fmt.Sprintf("r=%d", r), func(b *testing.B) {
			tw := fullWidth(b, r)
			tr, m := New(), model()
			b.ReportAllocs()
			b.ResetTimer()
			var candidates int64
			for i := 0; i < b.N; i++ {
				res, err := tr.Partition(tw, m)
				if err != nil {
					b.Fatal(err)
				}
				sink = res
				candidates += res.Stats.Candidates
			}
			b.ReportMetric(float64(candidates)/b.Elapsed().Seconds(), "candidates/s")
		})
	}
}
