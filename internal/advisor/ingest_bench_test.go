package advisor

import (
	"context"
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
// observations/sec. Each call carries batchSize queries for each of tables
// tables, workers the concurrent submitters — so (1, 1, 1) is the
// per-request baseline (one query, one HTTP-equivalent call, one WAL
// append+fsync, one O(window) drift check each). Every call is one
// ObserveBatchID request, the /observe request's shape, carrying one entry
// per table. With a registry bound it also reports fsyncs per call.
func benchObserve(b *testing.B, tables, batchSize, workers int, reg *telemetry.Registry) {
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
	tabs := make([]*schema.Table, tables)
	for i := range tabs {
		name := "events"
		if tables > 1 {
			name = fmt.Sprintf("t%d", i)
		}
		tabs[i], err = schema.NewTable(name, 1_000_000, []schema.Column{
			{Name: "a", Kind: schema.KindChar, Size: 100},
			{Name: "b", Kind: schema.KindChar, Size: 100},
			{Name: "c", Kind: schema.KindChar, Size: 100},
			{Name: "d", Kind: schema.KindChar, Size: 100},
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := svc.AdviseTable(schema.TableWorkload{Table: tabs[i], Queries: []schema.TableQuery{
			{ID: "q1", Weight: 1, Attrs: attrset.Of(0, 1)},
			{ID: "q2", Weight: 1, Attrs: attrset.Of(0, 1)},
			{ID: "q3", Weight: 1, Attrs: attrset.Of(2, 3)},
		}}); err != nil {
			b.Fatal(err)
		}
	}

	// Pre-build one stream's calls: 8 recurring attribute patterns,
	// weights 1..3.
	patterns := []attrset.Set{
		attrset.Of(0, 1), attrset.Of(2, 3), attrset.Of(0), attrset.Of(1),
		attrset.Of(2), attrset.Of(3), attrset.Of(0, 2), attrset.Of(1, 3),
	}
	ctx := context.Background()
	var calls []func() error
	for done := 0; done < benchStreamLen; {
		var obs []TableObservation
		for _, tab := range tabs {
			n := min(batchSize, benchStreamLen-done)
			if n == 0 {
				break
			}
			named := make([]ObservedQry, n)
			for j := range named {
				id := done + j
				named[j] = ObservedQry{Attrs: tab.AttrNames(patterns[id%len(patterns)]), Weight: float64(1 + id%3)}
			}
			obs = append(obs, TableObservation{Table: tab.Name, Queries: named})
			done += n
		}
		calls = append(calls, func() error {
			outs, _, err := svc.ObserveBatchID(ctx, "", obs)
			if err != nil {
				return err
			}
			for _, o := range outs {
				if o.Err != nil {
					return o.Err
				}
			}
			return nil
		})
	}

	var fsyncs *telemetry.Histogram
	var fsyncs0 uint64
	if reg != nil {
		fsyncs = reg.Histogram("knives_wal_fsync_seconds")
		fsyncs0 = fsyncs.Count()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		work := make(chan func() error, len(calls))
		for _, call := range calls {
			work <- call
		}
		close(work)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for call := range work {
					if err := call(); err != nil {
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
	if reg != nil {
		b.ReportMetric(float64(fsyncs.Count()-fsyncs0)/float64(b.N*len(calls)), "fsyncs/op")
	}
}

// BenchmarkObserveThroughput reports observations/sec through a durable
// service at window 1024, for four shapes. PerRequest sends one query per
// Observe call from one submitter, so every query pays its own WAL
// append+fsync and its own drift check. Batched sends 64 queries per call
// from 4 concurrent submitters on one table: each call is its own round
// with its own drift check, and calls serialize on the table's tracker
// lock across their WAL append, so they share no fsync. BatchedTelemetry
// is Batched with a live registry wired through the service and the state
// store, as knivesd runs it; comparing it with Batched in the same process
// shows the instrumentation cost. MultiTable is the observe-ingest
// workload's request run in-process: 8 tables x 32 queries per
// ObserveBatch call from 2 submitters, telemetry on, one round and one
// fsync per call. Nothing here asserts a ratio; the numbers are for
// comparing builds.
func BenchmarkObserveThroughput(b *testing.B) {
	b.Run("PerRequest", func(b *testing.B) { benchObserve(b, 1, 1, 1, nil) })
	b.Run("Batched", func(b *testing.B) { benchObserve(b, 1, 64, 4, nil) })
	b.Run("BatchedTelemetry", func(b *testing.B) {
		benchObserve(b, 1, 64, 4, telemetry.NewRegistry())
	})
	b.Run("MultiTable", func(b *testing.B) {
		benchObserve(b, 8, 32, 2, telemetry.NewRegistry())
	})
}
