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
// and draining σ/π/⋈ pipelines. (The benchmark used to re-run the HillClimb
// search per iteration, drowning the execution signal in search time.) The
// σ on l_shipdate keeps roughly half the rows, exercising the predicate
// branch per tuple while the leaf decomposition must stay bit-exact; with
// sel nil the plans are the predicate-free ones Engine.Scan also answers.
func benchmarkOperatorPipeline(b *testing.B, opts operator.ExecOptions, sel *Selection) {
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

	// The row oracle's checksums, computed once: every timed run — row or
	// vector, any batch size — must reproduce them bit-exactly.
	want := make([]uint64, len(tw.Queries))
	for i, q := range tw.Queries {
		pipe, err := operator.Build(snap, cfg.Disk, q.Attrs, pred)
		if err != nil {
			b.Fatal(err)
		}
		res, err := pipe.Run()
		if err != nil {
			b.Fatal(err)
		}
		want[i] = res.Checksum
	}

	var rows int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = 0
		for qi, q := range tw.Queries {
			pipe, err := operator.BuildExec(snap, cfg.Disk, q.Attrs, pred, opts)
			if err != nil {
				b.Fatal(err)
			}
			res, err := pipe.Run()
			if err != nil {
				b.Fatal(err)
			}
			if res.Checksum != want[qi] {
				b.Fatalf("%s: checksum %#x, want row oracle %#x", q.ID, res.Checksum, want[qi])
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

// shipdateSel is the σ the pipeline benchmarks push down.
func shipdateSel() *Selection {
	li := schema.TPCH(10).Table("lineitem")
	return &Selection{Attr: li.AttrIndex("l_shipdate"), Bound: 1263}
}

func BenchmarkOperatorPipeline(b *testing.B) {
	benchmarkOperatorPipeline(b, operator.ExecOptions{Mode: operator.ExecRow}, shipdateSel())
}

// The vectorized leg of the same workload: batch-at-a-time execution over
// views of the store's pages. Run it with -benchmem: B/op is the record that
// nothing buffers rows (operator.TestVectorScanDoesNotBufferRows is the gate).
func BenchmarkOperatorPipelineVectorized(b *testing.B) {
	benchmarkOperatorPipeline(b, operator.ExecOptions{Mode: operator.ExecVector}, shipdateSel())
}

// ROADMAP item 2's exit test, as a pair: the predicate-free vector pipelines
// against Engine.Scan over the same store and the same 17 queries. The one
// executor item 2 wants is the pipeline; it may replace the monolithic scan
// once the first of these is no slower than the second.
func BenchmarkOperatorPipelineVectorizedNoPredicate(b *testing.B) {
	benchmarkOperatorPipeline(b, operator.ExecOptions{Mode: operator.ExecVector}, nil)
}

func BenchmarkEngineScanLineitem(b *testing.B) {
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
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range tw.Queries {
			if _, err := e.Scan(q.Attrs); err != nil {
				b.Fatal(err)
			}
		}
	}
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
