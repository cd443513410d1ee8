package replay

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"knives/internal/attrset"
	"knives/internal/cost"
	"knives/internal/partition"
	"knives/internal/schema"
)

func testWorkload(t *testing.T, rows int64) schema.TableWorkload {
	t.Helper()
	tab, err := schema.NewTable("events", rows, []schema.Column{
		{Name: "id", Kind: schema.KindInt, Size: 4},
		{Name: "price", Kind: schema.KindDecimal, Size: 8},
		{Name: "ship", Kind: schema.KindDate, Size: 4},
		{Name: "mode", Kind: schema.KindChar, Size: 10},
		{Name: "note", Kind: schema.KindVarchar, Size: 44},
	})
	if err != nil {
		t.Fatal(err)
	}
	return schema.TableWorkload{Table: tab, Queries: []schema.TableQuery{
		{ID: "q1", Weight: 1, Attrs: attrset.Of(0, 1)},
		{ID: "q2", Weight: 3, Attrs: attrset.Of(2)},
		{ID: "q3", Weight: 0.5, Attrs: attrset.Of(0, 3, 4)},
	}}
}

func TestConfigValidation(t *testing.T) {
	tw := testWorkload(t, 1_000)
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"unknown model", Config{Model: "quantum"}, "unknown device/model"},
		{"negative rows", Config{MaxRows: -1}, "must be non-negative"},
		{"unknown backend", Config{Backend: "s3"}, "unknown backend"},
		{"file without dir", Config{Backend: BackendFile}, "needs Dir"},
		{"bad disk", Config{Disk: cost.Disk{BlockSize: -1, BufferSize: 1, ReadBandwidth: 1}}, "block size"},
	}
	for _, tc := range cases {
		_, err := Layout(tw, partition.Row(tw.Table), "Row", tc.cfg)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
	if _, err := Layout(schema.TableWorkload{}, partition.Partitioning{}, "x", Config{}); err == nil {
		t.Error("nil table accepted")
	}
	other := testWorkload(t, 500)
	if _, err := Layout(tw, partition.Row(other.Table), "Row", Config{}); err == nil {
		t.Error("layout over a different table accepted")
	}
}

// The package's headline guarantee on a hand-built workload: measured
// equals predicted with zero tolerance, under both cost models.
func TestLayoutMatchesModelExactly(t *testing.T) {
	tw := testWorkload(t, 4_000)
	layout := partition.Must(tw.Table, []attrset.Set{
		attrset.Of(0, 1), attrset.Of(2), attrset.Of(3, 4),
	})
	for _, model := range []string{"hdd", "mm"} {
		rep, err := Layout(tw, layout, "manual", Config{Model: model, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Exact() {
			t.Errorf("%s: not exact (max |delta| %g)", model, rep.MaxAbsDelta())
		}
		if rep.MaxAbsDelta() != 0 {
			t.Errorf("%s: MaxAbsDelta = %g, want 0", model, rep.MaxAbsDelta())
		}
		if len(rep.Queries) != len(tw.Queries) {
			t.Fatalf("%s: %d query replays, want %d", model, len(rep.Queries), len(tw.Queries))
		}
		for _, q := range rep.Queries {
			if q.Stats.Tuples != tw.Table.Rows {
				t.Errorf("%s/%s: %d tuples, want %d", model, q.ID, q.Stats.Tuples, tw.Table.Rows)
			}
			if q.MeasuredSeconds <= 0 {
				t.Errorf("%s/%s: measured %v seconds", model, q.ID, q.MeasuredSeconds)
			}
		}
		if rep.MeasuredTotal != rep.PredictedTotal {
			t.Errorf("%s: totals %v != %v", model, rep.MeasuredTotal, rep.PredictedTotal)
		}
	}
}

// TestLayoutIsOperatorsWithoutSelection: Layout is Operators with no σ, less
// the per-operator breakdown — the same TableReplay field for field, on both
// backends.
func TestLayoutIsOperatorsWithoutSelection(t *testing.T) {
	tw := testWorkload(t, 3_000)
	layout := partition.Must(tw.Table, []attrset.Set{attrset.Of(0, 1), attrset.Of(2), attrset.Of(3, 4)})
	for _, cfg := range []Config{
		{Model: "ssd", MaxRows: 1_200, Seed: 9},
		{Model: "mm", MaxRows: 1_200, Seed: 9, Backend: BackendFile, Dir: t.TempDir()},
	} {
		got, err := Layout(tw, layout, "manual", cfg)
		if err != nil {
			t.Fatal(err)
		}
		ops, err := Operators(tw, layout, "manual", cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := ops.TableReplay
		if !reflect.DeepEqual(*got, want) {
			t.Errorf("%s/%s: Layout differs from Operators' TableReplay\n got %+v\nwant %+v", cfg.Model, cfg.Backend, *got, want)
		}
		if !got.Exact() {
			t.Errorf("%s/%s: not exact", cfg.Model, cfg.Backend)
		}
	}
}

// The worker count must never change a reported number — only wall-clock.
func TestWorkerCountInvariance(t *testing.T) {
	tw := testWorkload(t, 3_000)
	layout := partition.Column(tw.Table)
	base, err := Operators(tw, layout, "Column", Config{Workers: 1, Seed: 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		rep, err := Operators(tw, layout, "Column", Config{Workers: workers, Seed: 3}, nil)
		if err != nil {
			t.Fatal(err)
		}
		sameReport(t, fmt.Sprintf("workers=%d", workers), rep, base)
		if rep.MeasuredTotal != base.MeasuredTotal || rep.PredictedTotal != base.PredictedTotal {
			t.Errorf("workers=%d: totals differ from sequential", workers)
		}
		for i, q := range rep.Queries {
			b := base.Queries[i]
			if q.Stats.Checksum != b.Stats.Checksum || q.Stats.Seeks != b.Stats.Seeks ||
				q.Stats.BytesRead != b.Stats.BytesRead || q.MeasuredSeconds != b.MeasuredSeconds {
				t.Errorf("workers=%d query %s: stats differ from sequential", workers, q.ID)
			}
		}
	}
}

// File-backed partitions must measure exactly what memory-backed ones do:
// the simulated disk is the same, only the pages' home differs.
func TestFileBackendMatchesMem(t *testing.T) {
	tw := testWorkload(t, 2_000)
	layout := partition.Must(tw.Table, []attrset.Set{attrset.Of(0, 2), attrset.Of(1), attrset.Of(3, 4)})
	mem, err := Layout(tw, layout, "manual", Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	file, err := Layout(tw, layout, "manual", Config{Seed: 5, Backend: BackendFile, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if file.MeasuredTotal != mem.MeasuredTotal || !file.Exact() {
		t.Errorf("file backend measured %v, mem %v, exact=%v", file.MeasuredTotal, mem.MeasuredTotal, file.Exact())
	}
	for i := range mem.Queries {
		if file.Queries[i].Stats.Checksum != mem.Queries[i].Stats.Checksum {
			t.Errorf("query %s: checksum differs between backends", mem.Queries[i].ID)
		}
	}
}

// Oversized tables are materialized at a sampled row count; exactness is
// preserved because the model prices the sampled table.
func TestSamplingCapsRows(t *testing.T) {
	tw := testWorkload(t, 1_000_000)
	rep, err := Layout(tw, partition.Row(tw.Table), "Row", Config{MaxRows: 2_500})
	if err != nil {
		t.Fatal(err)
	}
	if rep.RowsReplayed != 2_500 || rep.RowsFull != 1_000_000 {
		t.Errorf("rows = %d/%d, want 2500/1000000", rep.RowsReplayed, rep.RowsFull)
	}
	if !rep.Exact() {
		t.Error("sampled replay not exact")
	}
	if rep.Layout.Table.Rows != 2_500 {
		t.Errorf("layout table rows = %d, want the sample", rep.Layout.Table.Rows)
	}
}

func TestStringRendering(t *testing.T) {
	tw := testWorkload(t, 1_000)
	rep, err := Layout(tw, partition.Column(tw.Table), "Column", Config{})
	if err != nil {
		t.Fatal(err)
	}
	s := rep.String()
	for _, want := range []string{"replay events", "algorithm=Column", "exact=true", "q1"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendering misses %q:\n%s", want, s)
		}
	}
}

// lineitem is TPC-H SF 10's lineitem workload.
func lineitem() schema.TableWorkload {
	b := schema.TPCH(10)
	return b.Workload.ForTable(b.Table("lineitem"))
}
