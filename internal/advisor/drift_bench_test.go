package advisor

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"knives/internal/attrset"
	"knives/internal/schema"
)

// BenchmarkDriftCheck is one table's share of an /observe as the ingest
// stage runs it, WAL aside: a 32-query batch lands in a full 256-entry
// window (ingestLocked), the check's inputs are snapshotted
// (driftInputLocked) and priceDrift prices the window. The threshold is one
// no stream reaches, so no op runs a recompute search.
//
//   - lineitem is observe-ingest's shape: TPC-H lineitem's 17 registered
//     queries drawn round-robin, so the window holds 17 distinct sets.
//   - distinct is the worst case for the summary: 64 columns, and a cycle
//     of 512 distinct sets, so no set ever repeats within the window.
//
// shadow_queries/op is how many queries the O2P shadow folds per check:
// the window's distinct attribute sets.
func BenchmarkDriftCheck(b *testing.B) {
	b.Run("lineitem", func(b *testing.B) {
		tpch := schema.TPCH(10)
		tw := tpch.Workload.ForTable(tpch.Table("lineitem"))
		benchDriftCheck(b, tw, func(i int) schema.TableQuery { return tw.Queries[i%len(tw.Queries)] })
	})
	b.Run("distinct", func(b *testing.B) {
		rng := rand.New(rand.NewSource(1))
		sizes := []int{4, 8, 4, 1, 15, 25, 44, 117}
		cols := make([]schema.Column, attrset.MaxAttrs)
		for i := range cols {
			cols[i] = schema.Column{Name: fmt.Sprintf("c%02d", i), Kind: schema.KindChar, Size: sizes[rng.Intn(len(sizes))]}
		}
		tab := schema.MustTable("wide", 1_000_000, cols)
		var cycle []schema.TableQuery
		seen := make(map[attrset.Set]bool)
		for len(cycle) < 512 {
			var attrs attrset.Set
			for k := 1 + rng.Intn(6); k > 0; k-- {
				attrs = attrs.Add(rng.Intn(attrset.MaxAttrs))
			}
			if !seen[attrs] {
				seen[attrs] = true
				cycle = append(cycle, schema.TableQuery{ID: fmt.Sprintf("d%d", len(cycle)), Weight: float64(1 + rng.Intn(4)), Attrs: attrs})
			}
		}
		tw := schema.TableWorkload{Table: tab, Queries: cycle[:16]}
		benchDriftCheck(b, tw, func(i int) schema.TableQuery { return cycle[i%len(cycle)] })
	})
}

// benchDriftCheck registers tw, fills the window from next, and times one
// batch-plus-check per op.
func benchDriftCheck(b *testing.B, tw schema.TableWorkload, next func(i int) schema.TableQuery) {
	const window, batchSize = 256, 32
	svc := NewService(Config{DriftThreshold: 100, DriftWindow: window})
	defer svc.Close()
	if _, _, err := svc.AdviseTable(tw); err != nil {
		b.Fatal(err)
	}
	tr, err := svc.tracker(tw.Table.Name)
	if err != nil {
		b.Fatal(err)
	}
	seq := 0
	check := func() {
		batch := make([]schema.TableQuery, batchSize)
		for j := range batch {
			batch[j] = next(seq)
			seq++
		}
		tr.mu.Lock()
		tr.ingestLocked(batch)
		in := tr.driftInputLocked()
		tr.mu.Unlock()
		rep, _, err := tr.priceDrift(context.Background(), in, nil)
		if err != nil || rep.Drifted {
			b.Fatalf("drift check: %+v, %v", rep, err)
		}
	}
	for seq < 2*window {
		check()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		check()
	}
	b.StopTimer()
	_, cur := tr.State()
	distinct := make(map[attrset.Set]bool)
	for _, q := range cur.Queries {
		distinct[q.Attrs] = true
	}
	b.ReportMetric(float64(len(distinct)), "shadow_queries/op")
}
