package storage_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"knives/internal/algorithms"
	"knives/internal/attrset"
	"knives/internal/cost"
	"knives/internal/operator"
	"knives/internal/partition"
	"knives/internal/schema"
	"knives/internal/storage"
)

// The executor against the Scan oracle (scan_test.go). Production runs every
// query as an operator pipeline over partition cursors; Engine.Scan is the
// monolithic loop it replaced, with cursors of its own, and this file is the
// one place the two meet: an external test package, because the operator
// layer imports storage. The operator package checks the same pipeline
// against its row-at-a-time and copying oracles; what only this file can
// show is that a composed plan's ScanStats — per-partition breakdown,
// simulated time, checksum — are the monolithic scan's, bit for bit.

// pipeTable is wide enough for mixed layouts and has the u32 columns σ
// needs; 1100 rows end mid-page on every partition of every layout below.
func pipeTable(t testing.TB) *schema.Table {
	t.Helper()
	tbl, err := schema.NewTable("pipe", 1100, []schema.Column{
		{Name: "k", Kind: schema.KindInt, Size: 4},
		{Name: "d", Kind: schema.KindDate, Size: 4},
		{Name: "p", Kind: schema.KindDecimal, Size: 8},
		{Name: "f", Kind: schema.KindChar, Size: 1},
		{Name: "c", Kind: schema.KindVarchar, Size: 44},
		{Name: "n", Kind: schema.KindInt, Size: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// pipeQueries is the small workload every store is asked: single columns,
// groups that cut across the mixed layout's partitions, everything, nothing.
var pipeQueries = []attrset.Set{
	attrset.Of(0),
	attrset.Of(4),
	attrset.Of(0, 2),
	attrset.Of(1, 3, 5),
	attrset.Of(2, 4, 5),
	attrset.All(6),
	attrset.Of(),
}

// smallDevice shrinks a preset's geometry so 1100 rows span many pages and
// buffer refills, keeping its pricing discipline and mechanical constants.
func smallDevice(t testing.TB, name string) cost.Device {
	t.Helper()
	dev, err := cost.DeviceByName(name)
	if err != nil {
		t.Fatal(err)
	}
	dev.BlockSize, dev.BufferSize, dev.CacheLineSize = 256, 2048, 32
	return dev
}

func loadStore(t testing.TB, layout partition.Partitioning, dev cost.Device, file bool, seed int64) *storage.Engine {
	t.Helper()
	var newBackend func(string, int) (storage.Backend, error)
	if file {
		dir := t.TempDir()
		newBackend = func(name string, pageSize int) (storage.Backend, error) {
			return storage.NewFileBackend(dir, name, pageSize)
		}
	}
	e, err := storage.NewEngine(layout, dev, newBackend)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	if err := e.Load(storage.NewGenerator(seed), layout.Table.Rows); err != nil {
		t.Fatal(err)
	}
	return e
}

func runPipeline(t testing.TB, snap *storage.Snapshot, dev cost.Device, q attrset.Set, pred *operator.Pred, batch int) operator.Result {
	t.Helper()
	pipe, err := operator.BuildExec(snap, dev, q, pred, operator.ExecOptions{BatchSize: batch})
	if err != nil {
		t.Fatal(err)
	}
	res, err := pipe.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestPipelineEqualsScanOracle: for {hdd, ssd, mm} x {mem, file} x Row /
// Column / a mixed layout x every query of the workload, at a batch size
// that never divides a page and at the default, the pipeline's ScanStats
// DeepEqual the monolithic scan's.
func TestPipelineEqualsScanOracle(t *testing.T) {
	tbl := pipeTable(t)
	layouts := map[string]partition.Partitioning{
		"row":    partition.Row(tbl),
		"column": partition.Column(tbl),
		"mixed":  partition.Must(tbl, []attrset.Set{attrset.Of(0, 1), attrset.Of(2, 3, 5), attrset.Of(4)}),
	}
	for _, model := range []string{"hdd", "ssd", "mm"} {
		dev := smallDevice(t, model)
		for _, backend := range []string{"mem", "file"} {
			for lname, layout := range layouts {
				t.Run(fmt.Sprintf("%s/%s/%s", model, backend, lname), func(t *testing.T) {
					e := loadStore(t, layout, dev, backend == "file", 7)
					snap := e.Snapshot()
					for qi, q := range pipeQueries {
						want, err := e.Scan(q)
						if err != nil {
							t.Fatal(err)
						}
						for _, batch := range []int{7, 0} {
							got := runPipeline(t, snap, dev, q, nil, batch)
							if !reflect.DeepEqual(got.Stats, want) {
								t.Errorf("q%d batch %d: pipeline stats diverge from Engine.Scan\n got %+v\nwant %+v",
									qi, batch, got.Stats, want)
							}
							if got.Rows != want.Tuples || got.Checksum != want.Checksum {
								t.Errorf("q%d batch %d: rows/checksum %d/%x, Scan %d/%x",
									qi, batch, got.Rows, got.Checksum, want.Tuples, want.Checksum)
							}
						}
					}
				})
			}
		}
	}
}

// TestPipelineSelectionReadsWhatScanReads: σ changes what comes out, never
// what is read — a selective plan's physical accounting is the monolithic
// scan's of (query ∪ {predicate attribute}), and an all-pass σ's digest is
// the predicate-free scan's.
func TestPipelineSelectionReadsWhatScanReads(t *testing.T) {
	tbl := pipeTable(t)
	dev := smallDevice(t, "hdd")
	e := loadStore(t, partition.Must(tbl, []attrset.Set{attrset.Of(0, 1), attrset.Of(2, 3, 5), attrset.Of(4)}), dev, false, 11)
	snap := e.Snapshot()
	q := attrset.Of(0, 2, 4)
	for _, bound := range []uint32{0, storage.DateDomain / 3, storage.DateDomain} {
		pred := operator.U32Less(1, bound)
		got := runPipeline(t, snap, dev, q, &pred, 64)
		want, err := e.Scan(q.Add(1))
		if err != nil {
			t.Fatal(err)
		}
		if got.Stats.Seeks != want.Seeks || got.Stats.BytesRead != want.BytesRead || got.Stats.CacheLines != want.CacheLines ||
			got.Stats.SimTime != want.SimTime || !reflect.DeepEqual(got.Stats.Parts, want.Parts) {
			t.Errorf("bound %d: selective plan's physical reads diverge from the full scan\n got %+v\nwant %+v", bound, got.Stats, want)
		}
		if bound == storage.DateDomain {
			full, err := e.Scan(q)
			if err != nil {
				t.Fatal(err)
			}
			if got.Checksum != full.Checksum || got.Rows != full.Tuples {
				t.Errorf("all-pass σ: checksum/rows %x/%d, Scan %x/%d", got.Checksum, got.Rows, full.Checksum, full.Tuples)
			}
		}
	}
}

// TestPipelineWhatIfDeviceEqualsScan: a pipeline accounting against another
// device (same block geometry) over one store equals a scan on an engine
// built with that device outright.
func TestPipelineWhatIfDeviceEqualsScan(t *testing.T) {
	tbl := pipeTable(t)
	layout := partition.Must(tbl, []attrset.Set{attrset.Of(0, 2), attrset.Of(1, 3), attrset.Of(4, 5)})
	base := smallDevice(t, "hdd")
	whatif := smallDevice(t, "ssd")
	whatif.BufferSize = 1024
	q := attrset.Of(0, 1, 4)
	got := runPipeline(t, loadStore(t, layout, base, false, 3).Snapshot(), whatif, q, nil, 0)
	want, err := loadStore(t, layout, whatif, false, 3).Scan(q)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Stats, want) {
		t.Errorf("what-if stats diverge\n got %+v\nwant %+v", got.Stats, want)
	}
}

// TestPipelineEqualsScanOnRandomLayouts takes the identity off the three
// named layouts: seeded random partitionings, queries and batch sizes.
func TestPipelineEqualsScanOnRandomLayouts(t *testing.T) {
	tbl := pipeTable(t)
	dev := smallDevice(t, "mm")
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 25; trial++ {
		groups := map[int]attrset.Set{}
		for a := range tbl.Columns {
			g := rng.Intn(4)
			groups[g] = groups[g].Add(a)
		}
		var parts []attrset.Set
		for _, p := range groups {
			parts = append(parts, p)
		}
		e := loadStore(t, partition.Must(tbl, parts), dev, trial%5 == 0, int64(trial))
		q := attrset.Set(rng.Intn(1 << len(tbl.Columns)))
		want, err := e.Scan(q)
		if err != nil {
			t.Fatal(err)
		}
		batch := 1 + rng.Intn(300)
		if got := runPipeline(t, e.Snapshot(), dev, q, nil, batch); !reflect.DeepEqual(got.Stats, want) {
			t.Errorf("trial %d (layout %v query %v batch %d): pipeline stats diverge from Engine.Scan\n got %+v\nwant %+v",
				trial, parts, q, batch, got.Stats, want)
		}
	}
}

// BenchmarkEngineScanLineitem is the oracle's side of the ratio that decided
// "one executor": TPC-H lineitem, 20k rows, HillClimb's layout, the table's
// 17 queries as monolithic scans. The pipeline's side over the same store is
// replay's BenchmarkOperatorPipelineVectorizedNoPredicate:
//
//	go test ./internal/storage ./internal/replay -run '^$' -cpu 1 \
//	    -bench 'EngineScanLineitem|OperatorPipelineVectorizedNoPredicate'
func BenchmarkEngineScanLineitem(b *testing.B) {
	bench := schema.TPCH(10)
	tw := bench.Workload.ForTable(bench.Table("lineitem"))
	hc, err := algorithms.ByName("HillClimb")
	if err != nil {
		b.Fatal(err)
	}
	res, err := hc.Partition(tw, cost.NewHDD(cost.DefaultDisk()))
	if err != nil {
		b.Fatal(err)
	}
	sample := schema.MustTable(tw.Table.Name, 20_000, tw.Table.Columns)
	e := loadStore(b, partition.Must(sample, res.Partitioning.Parts), cost.DefaultDisk(), false, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range tw.Queries {
			if _, err := e.Scan(q.Attrs); err != nil {
				b.Fatal(err)
			}
		}
	}
}
