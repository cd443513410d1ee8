package advisor

import (
	"fmt"
	"sync"
	"testing"

	"knives/internal/attrset"
	"knives/internal/schema"
	"knives/internal/statestore"
	"knives/internal/telemetry"
	"knives/internal/vfs"
)

// benchStreamLen is the observed-query stream one benchmark iteration
// pushes through the service: fixed, so obs/sec is meaningful even at
// -benchtime 1x (the repo's baseline-recording convention).
const benchStreamLen = 4096

// benchObserve pushes benchStreamLen observed queries per iteration
// through a durable (on-disk WAL) service and reports the achieved
// observations/sec. batchSize is the queries per Observe call, workers
// the concurrent submitters — so (1, 1) is the per-request baseline (one
// query, one HTTP-equivalent call, one WAL append+fsync, one O(window)
// drift check each) and larger shapes exercise the batched, sharded,
// group-committing pipeline.
func benchObserve(b *testing.B, batchSize, workers int, reg *telemetry.Registry) {
	dir := b.TempDir()
	fs, err := vfs.Dir(dir)
	if err != nil {
		b.Fatal(err)
	}
	st, err := statestore.Open(fs, statestore.Options{DriftWindow: 1024, Metrics: reg})
	if err != nil {
		b.Fatal(err)
	}
	svc, err := OpenService(Config{
		// A threshold no workload reaches: the benchmark measures steady
		// ingest + per-batch drift pricing, not recompute searches.
		DriftThreshold: 100,
		DriftWindow:    1024,
		Store:          st,
		Telemetry:      reg,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer svc.Close()
	tab, err := schema.NewTable("events", 1_000_000, []schema.Column{
		{Name: "a", Kind: schema.KindChar, Size: 100},
		{Name: "b", Kind: schema.KindChar, Size: 100},
		{Name: "c", Kind: schema.KindChar, Size: 100},
		{Name: "d", Kind: schema.KindChar, Size: 100},
	})
	if err != nil {
		b.Fatal(err)
	}
	if _, _, err := svc.AdviseTable(schema.TableWorkload{Table: tab, Queries: []schema.TableQuery{
		{ID: "q1", Weight: 1, Attrs: attrset.Of(0, 1)},
		{ID: "q2", Weight: 1, Attrs: attrset.Of(0, 1)},
		{ID: "q3", Weight: 1, Attrs: attrset.Of(2, 3)},
	}}); err != nil {
		b.Fatal(err)
	}

	// Pre-build one stream's batches: 8 recurring attribute patterns,
	// weights 1..3.
	patterns := []attrset.Set{
		attrset.Of(0, 1), attrset.Of(2, 3), attrset.Of(0), attrset.Of(1),
		attrset.Of(2), attrset.Of(3), attrset.Of(0, 2), attrset.Of(1, 3),
	}
	var batches [][]schema.TableQuery
	for done := 0; done < benchStreamLen; {
		n := batchSize
		if benchStreamLen-done < n {
			n = benchStreamLen - done
		}
		batch := make([]schema.TableQuery, n)
		for j := range batch {
			id := done + j
			batch[j] = schema.TableQuery{
				ID:     fmt.Sprintf("o%d", id),
				Weight: float64(1 + id%3),
				Attrs:  patterns[id%len(patterns)],
			}
		}
		batches = append(batches, batch)
		done += n
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		work := make(chan []schema.TableQuery, len(batches))
		for _, batch := range batches {
			work <- batch
		}
		close(work)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for batch := range work {
					if _, err := svc.Observe("events", batch); err != nil {
						b.Error(err)
						return
					}
				}
			}()
		}
		wg.Wait()
	}
	b.StopTimer()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(b.N)*benchStreamLen/secs, "obs/sec")
	}
}

// BenchmarkObserveThroughput reports observations/sec through a durable
// service at window 1024, for three shapes. PerRequest sends one query
// per Observe call from one submitter, so every query pays its own WAL
// append+fsync and its own drift check. Batched sends 64 queries per call
// from 4 concurrent submitters, so calls share group commits and one
// drift check per group. BatchedTelemetry is Batched with a live registry
// wired through the service and the state store, as knivesd runs it;
// comparing it with Batched in the same process shows the instrumentation
// cost. Nothing here asserts a ratio; the numbers are for comparing
// builds.
func BenchmarkObserveThroughput(b *testing.B) {
	b.Run("PerRequest", func(b *testing.B) { benchObserve(b, 1, 1, nil) })
	b.Run("Batched", func(b *testing.B) { benchObserve(b, 64, 4, nil) })
	b.Run("BatchedTelemetry", func(b *testing.B) {
		benchObserve(b, 64, 4, telemetry.NewRegistry())
	})
}
