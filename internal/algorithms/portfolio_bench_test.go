package algorithms

import (
	"runtime"
	"runtime/debug"
	"testing"

	"knives/internal/algo"
	"knives/internal/cost"
	"knives/internal/schema"
	"knives/internal/workgen"
)

// benchShapedTables draws n tables the way the advise-search traffic does:
// widths 8/12/16/18/20 walking the fragmentation grid. Seeded, so every run
// and every build prices the same tables.
func benchShapedTables(n int) []schema.TableWorkload {
	return workgen.Shaped(n, []int{8, 12, 16, 18, 20}, 1)
}

// BenchmarkPortfolioKnives times each of the six heuristics (the advisor
// serves the first three) on 50 bench-shaped tables under the HDD model. One op is one search of
// each of the 50 tables, so B/op divided by 50 is the bytes one search
// allocates.
func BenchmarkPortfolioKnives(b *testing.B) {
	tables := benchShapedTables(50)
	m := cost.NewHDD(cost.DefaultDisk())
	for _, a := range Heuristics() {
		b.Run(a.Name(), func(b *testing.B) {
			b.ReportAllocs()
			var cands int64
			for i := 0; i < b.N; i++ {
				for _, tw := range tables {
					res, err := a.Partition(tw, m)
					if err != nil {
						b.Fatal(err)
					}
					cands += res.Stats.Candidates
				}
			}
			b.ReportMetric(float64(cands)/float64(b.N), "candidates/op")
		})
	}
}

// bytesPerSearch returns the heap bytes one search of a allocates, averaged
// over the tables. The collector is off and the test runs on one P, as
// testing.AllocsPerRun does, so the figure is deterministic: a sync.Pool
// keeps what it holds per P and drops it at a collection.
func bytesPerSearch(t *testing.T, a algo.Algorithm, m cost.Model, tables []schema.TableWorkload) float64 {
	t.Helper()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	run := func() {
		for _, tw := range tables {
			if _, err := a.Partition(tw, m); err != nil {
				t.Fatal(err)
			}
		}
	}
	run() // warm-up: pooled scratch is allocated once per process, not per search
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(len(tables))
}

// The bottom-up knives allocate no more per search than they did when every
// candidate was priced from attribute sets. The ceilings are that kernel's
// bytes per search on these 50 tables, measured with this loop (Go 1.24,
// linux/amd64): the size-vector kernel added per-part and per-query state,
// and this pins that its pooling pays for it.
func TestBottomUpKnivesAllocateNoMoreBytesPerSearch(t *testing.T) {
	if raceDetector {
		t.Skip("sync.Pool drops pooled evaluators at random under -race")
	}
	ceilings := map[string]float64{"AutoPart": 3059, "HillClimb": 1283, "HYRISE": 10463}
	tables := benchShapedTables(50)
	m := cost.NewHDD(cost.DefaultDisk())
	for _, a := range Heuristics() {
		ceiling, ok := ceilings[a.Name()]
		if !ok {
			continue
		}
		if got := bytesPerSearch(t, a, m, tables); got > ceiling {
			t.Errorf("%s allocates %.0f B per search, more than %.0f", a.Name(), got, ceiling)
		} else {
			t.Logf("%s: %.0f B per search (ceiling %.0f)", a.Name(), got, ceiling)
		}
	}
}
