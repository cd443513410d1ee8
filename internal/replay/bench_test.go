package replay

import (
	"testing"

	"knives/internal/operator"
	"knives/internal/schema"
)

// The replay hot path: materialize Lineitem once per iteration and scan the
// full TPC-H per-table workload against the HillClimb layout pinned for the
// device, read before the timed loop. Sequential (one partition loader) vs
// parallel (GOMAXPROCS loaders) records what the partition-parallel load
// trades on multi-core runners; the execution is one lockstep group on the
// calling goroutine either way (identical numbers are the correctness
// contract; wall clock is the perf record). The SSD leg pins that
// per-device accounting adds no overhead and stays exact while benchmarked.
func benchmarkReplay(b *testing.B, device string, workers int) {
	tw := lineitem()
	layout := pinned(b, "TPC-H", tw, device, "HillClimb")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := Layout(tw, layout, "HillClimb", Config{Model: device, MaxRows: 20_000, Workers: workers, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Exact() {
			b.Fatal("replay not exact")
		}
		b.ReportMetric(float64(rep.BytesRead), "bytes-replayed")
		b.ReportMetric(rep.MeasuredTotal, device+"-simulated-seconds")
	}
}

func BenchmarkReplayLineitemSequential(b *testing.B) { benchmarkReplay(b, "hdd", 1) }
func BenchmarkReplayLineitemParallel(b *testing.B)   { benchmarkReplay(b, "hdd", 0) }
func BenchmarkReplaySSD(b *testing.B)                { benchmarkReplay(b, "ssd", 0) }

// The operator pipeline on the same hot path — execution ONLY. The pinned
// layout's lookup, sampled materialization, and epoch snapshot all happen once
// outside the timed region, so the loop measures what it names: building
// and draining σ/π/⋈ pipelines. With sel nil the plans are the
// predicate-free ones the Scan oracle also answers.
func benchmarkOperatorPipeline(b *testing.B, sel *Selection) {
	tw := lineitem()
	cfg, _, err := (Config{MaxRows: 20_000, Seed: 1}).normalized()
	if err != nil {
		b.Fatal(err)
	}
	layout := pinned(b, "TPC-H", tw, "hdd", "HillClimb")
	e, err := Materialize(tw, layout, cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	snap := e.Snapshot()

	var rows int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = 0
		for _, q := range tw.Queries {
			pipe, err := operator.Build(snap, cfg.Disk, q.Attrs, sel)
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

// BenchmarkOperatorsOnQuery is the served /query shape, one layer down:
// OperatorsOn over a resident 20k-row lineitem store holding its pinned
// HillClimb layout, σ on l_shipdate keeping about half the rows, the query
// groups at their default width. Materialization happens once, outside the
// timed loop; run it with -benchmem, since B/op is most of what a /query
// allocates below the report encoder.
func BenchmarkOperatorsOnQuery(b *testing.B) {
	tw := lineitem()
	cfg := Config{MaxRows: 20_000, Seed: 1}
	ncfg, _, err := cfg.Normalized()
	if err != nil {
		b.Fatal(err)
	}
	layout := pinned(b, "TPC-H", tw, "hdd", "HillClimb")
	e, err := Materialize(tw, layout, ncfg)
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	sel := &Selection{Attr: tw.Table.AttrIndex("l_shipdate"), Bound: 1263}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := OperatorsOn(tw, layout, e, "HillClimb", cfg, sel)
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Exact() {
			b.Fatal("execution not exact")
		}
	}
}
