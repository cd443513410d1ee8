package replay

import (
	"testing"

	"knives/internal/operator"
	"knives/internal/schema"
)

// The replay hot path: materialize Lineitem once per iteration and scan the
// full TPC-H per-table workload against the HillClimb layout. Sequential vs
// parallel pins the worker pool's speedup on multi-core runners (identical
// numbers are the correctness contract; wall clock is the perf record).
func benchmarkLineitem(b *testing.B, workers int) {
	bench := schema.TPCH(10)
	tw := bench.Workload.ForTable(bench.Table("lineitem"))
	for i := 0; i < b.N; i++ {
		rep, err := Algorithm(tw, "HillClimb", Config{MaxRows: 20_000, Workers: workers, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Exact() {
			b.Fatal("replay not exact")
		}
		b.ReportMetric(float64(rep.BytesRead), "bytes-replayed")
		b.ReportMetric(float64(len(rep.Queries)), "queries")
	}
}

func BenchmarkReplayLineitemSequential(b *testing.B) { benchmarkLineitem(b, 1) }
func BenchmarkReplayLineitemParallel(b *testing.B)   { benchmarkLineitem(b, 0) }

// The operator pipeline on the same hot path — execution ONLY. The layout
// search, sampled materialization, and epoch snapshot all happen once
// outside the timed region, so the loop measures what it names: building
// and draining σ/π/⋈ pipelines. With sel nil the plans are the
// predicate-free ones the Scan oracle also answers.
func benchmarkOperatorPipeline(b *testing.B, sel *Selection) {
	bench := schema.TPCH(10)
	tw := bench.Workload.ForTable(bench.Table("lineitem"))
	cfg, model, err := (Config{MaxRows: 20_000, Seed: 1}).normalized()
	if err != nil {
		b.Fatal(err)
	}
	layout, _, err := layoutFor(tw, "HillClimb", model)
	if err != nil {
		b.Fatal(err)
	}
	e, err := Materialize(tw, layout, cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	snap := e.Snapshot()
	var pred *operator.Pred
	if sel != nil {
		p := sel.pred()
		pred = &p
	}

	var rows int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = 0
		for _, q := range tw.Queries {
			pipe, err := operator.Build(snap, cfg.Disk, q.Attrs, pred)
			if err != nil {
				b.Fatal(err)
			}
			res, err := pipe.Run()
			if err != nil {
				b.Fatal(err)
			}
			rows += res.Rows
		}
	}
	b.StopTimer()
	total := float64(rows) * float64(b.N)
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(total/secs, "rows/s")
	}
	b.ReportMetric(float64(rows), "result-rows")
}

// σ on l_shipdate keeps roughly half the rows. Run it with -benchmem: B/op
// is the record that nothing buffers rows
// (operator.TestVectorScanDoesNotBufferRows is the gate). The row oracle's
// time for the same workload is operator's BenchmarkOperatorPipeline.
func BenchmarkOperatorPipelineVectorized(b *testing.B) {
	li := schema.TPCH(10).Table("lineitem")
	benchmarkOperatorPipeline(b, &Selection{Attr: li.AttrIndex("l_shipdate"), Bound: 1263})
}

// The pipeline's side of the ratio that decided "one executor": the
// predicate-free plans over the same store and the same 17 queries as
// storage's BenchmarkEngineScanLineitem.
func BenchmarkOperatorPipelineVectorizedNoPredicate(b *testing.B) {
	benchmarkOperatorPipeline(b, nil)
}

// The SSD leg of the replay record: the same materialize-and-scan chain on
// the flash device, pinning that per-device accounting adds no overhead and
// the exactness contract holds while benchmarked.
func BenchmarkReplaySSD(b *testing.B) {
	bench := schema.TPCH(10)
	tw := bench.Workload.ForTable(bench.Table("lineitem"))
	for i := 0; i < b.N; i++ {
		rep, err := Algorithm(tw, "HillClimb", Config{Model: "ssd", MaxRows: 20_000, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Exact() {
			b.Fatal("SSD replay not exact")
		}
		b.ReportMetric(float64(rep.BytesRead), "bytes-replayed")
		b.ReportMetric(rep.MeasuredTotal, "ssd-simulated-seconds")
	}
}
