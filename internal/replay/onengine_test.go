package replay

import (
	"strings"
	"sync"
	"testing"

	"knives/internal/attrset"
	"knives/internal/cost"
	"knives/internal/partition"
	"knives/internal/schema"
	"knives/internal/storage"
)

// TestOnEngineMatchesLayout: replaying a caller-materialized engine must
// produce exactly the report a from-scratch Layout replay produces for the
// same layout, seed, and model (wall clock aside).
func TestOnEngineMatchesLayout(t *testing.T) {
	tw := testWorkload(t, 3_000)
	layout := partition.Must(tw.Table, []attrset.Set{attrset.Of(0, 1), attrset.Of(2), attrset.Of(3, 4)})
	for _, model := range []string{"hdd", "mm"} {
		t.Run(model, func(t *testing.T) {
			cfg := Config{Model: model, Seed: 5}
			want, err := Layout(tw, layout, "test", cfg)
			if err != nil {
				t.Fatal(err)
			}
			ncfg, m, err := cfg.Normalized()
			if err != nil {
				t.Fatal(err)
			}
			e, err := storage.NewEngine(layout, ncfg.Disk, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			if dev := m.(*cost.DeviceModel).Device(); dev.Pricing == cost.PricingCache {
				if err := e.SetCacheLine(dev.CacheLineSize); err != nil {
					t.Fatal(err)
				}
			}
			if err := e.Load(storage.NewGenerator(ncfg.Seed), tw.Table.Rows); err != nil {
				t.Fatal(err)
			}
			got, err := OnEngine(tw, e, "test", cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Exact() {
				t.Error("OnEngine replay not exact against the model")
			}
			if got.MeasuredTotal != want.MeasuredTotal || got.PredictedTotal != want.PredictedTotal {
				t.Errorf("OnEngine totals %.18g/%.18g != Layout's %.18g/%.18g",
					got.MeasuredTotal, got.PredictedTotal, want.MeasuredTotal, want.PredictedTotal)
			}
			for i := range got.Queries {
				if got.Queries[i].Stats.Checksum != want.Queries[i].Stats.Checksum {
					t.Errorf("query %d checksum differs from Layout replay", i)
				}
			}
			if got.RowsReplayed != want.RowsReplayed {
				t.Errorf("rows replayed %d != %d", got.RowsReplayed, want.RowsReplayed)
			}
		})
	}
}

// TestOnEngineAfterRepartition: the migration contract — an engine whose
// layout was swapped in place replays exactly like the target layout.
func TestOnEngineAfterRepartition(t *testing.T) {
	tw := testWorkload(t, 2_000)
	from := partition.Row(tw.Table)
	to := partition.Column(tw.Table)
	cfg := Config{Seed: 3}
	ncfg, _, err := cfg.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	e, err := storage.NewEngine(from, ncfg.Disk, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.Load(storage.NewGenerator(3), tw.Table.Rows); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Repartition(to, 0); err != nil {
		t.Fatal(err)
	}
	got, err := OnEngine(tw, e, "migrated", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Exact() {
		t.Error("post-repartition replay diverged from the cost model")
	}
	if !got.Layout.Equal(to) {
		t.Errorf("report layout %s, want %s", got.Layout, to)
	}
	fresh, err := Layout(tw, to, "fresh", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got.MeasuredTotal != fresh.MeasuredTotal {
		t.Errorf("migrated %.18g != fresh %.18g", got.MeasuredTotal, fresh.MeasuredTotal)
	}
}

// TestOnEngineValidation covers the mismatch paths.
func TestOnEngineValidation(t *testing.T) {
	tw := testWorkload(t, 500)
	other := testWorkload(t, 500)
	layout := partition.Row(tw.Table)
	e, err := storage.NewEngine(layout, cost.DefaultDisk(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.Load(storage.NewGenerator(1), tw.Table.Rows); err != nil {
		t.Fatal(err)
	}
	if _, err := OnEngine(other, e, "x", Config{}); err == nil {
		t.Error("foreign workload accepted")
	}
	if _, err := OnEngine(schema.TableWorkload{}, e, "x", Config{}); err == nil {
		t.Error("nil table accepted")
	}
	if _, err := OnEngine(tw, e, "x", Config{Model: "quantum"}); err == nil {
		t.Error("unknown model accepted")
	}
}

// TestOnEngineConcurrentReplays: replays of one loaded engine may overlap —
// a replay only reads it, through cursors on its own snapshot. Meaningful
// under -race.
func TestOnEngineConcurrentReplays(t *testing.T) {
	tw := testWorkload(t, 1_000)
	cfg := Config{Model: "mm", Seed: 2}
	ncfg, _, err := cfg.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	e, err := Materialize(tw, partition.Column(tw.Table), ncfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	tw.Table = e.Table()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rep, err := OnEngine(tw, e, "shared", cfg)
			if err != nil {
				t.Error(err)
			} else if !rep.Exact() {
				t.Error("concurrent OnEngine replay not exact")
			}
		}()
	}
	wg.Wait()
}

// TestOperatorsOnSharedEngine: executions over one shared, already-loaded
// engine — from workloads decoded separately, so no table pointer matches
// the engine's — report exactly what a private materialization reports, for
// every selection and device, concurrently. The exec label rides along (the
// test floor pins the subtest names): whatever it says, the private run
// under the default label reports the same numbers.
func TestOperatorsOnSharedEngine(t *testing.T) {
	first := testWorkload(t, 3_000)
	parts := []attrset.Set{attrset.Of(0, 1), attrset.Of(2), attrset.Of(3, 4)}
	for _, model := range []string{"hdd", "ssd", "mm"} {
		for _, mode := range []string{"row", "vector"} {
			t.Run(model+"/"+mode, func(t *testing.T) {
				cfg := Config{Model: model, MaxRows: 1_000, Seed: 5, ExecMode: mode}
				ncfg, _, err := cfg.Normalized()
				if err != nil {
					t.Fatal(err)
				}
				e, err := Materialize(first, partition.Must(first.Table, parts), ncfg)
				if err != nil {
					t.Fatal(err)
				}
				defer e.Close()
				var wg sync.WaitGroup
				for _, bound := range []uint32{0, 400, 1263, storage.DateDomain} {
					wg.Add(1)
					go func() {
						defer wg.Done()
						tw := testWorkload(t, 3_000)
						layout := partition.Must(tw.Table, parts)
						sel := &Selection{Attr: 2, Bound: bound}
						plain := cfg
						plain.ExecMode = ""
						want, err := Operators(tw, layout, "test", plain, sel)
						if err != nil {
							t.Error(err)
							return
						}
						want.ExecMode = mode
						got, err := OperatorsOn(tw, layout, e, "test", cfg, sel)
						if err != nil {
							t.Error(err)
							return
						}
						sameReport(t, "shared vs private engine", got, want)
						if !got.Exact() || got.RowsFull != 3_000 || got.RowsReplayed != 1_000 {
							t.Errorf("bound %d: exact=%v rows %d/%d, want exact 1000/3000",
								bound, got.Exact(), got.RowsReplayed, got.RowsFull)
						}
					}()
				}
				wg.Wait()
			})
		}
	}
}

// TestOperatorsOnRefusesForeignEngine: a shared engine is matched by value,
// and anything but the layout's own sampled twin is an error.
func TestOperatorsOnRefusesForeignEngine(t *testing.T) {
	tw := testWorkload(t, 3_000)
	layout := partition.Row(tw.Table)
	cfg := Config{MaxRows: 1_000, Seed: 1}
	ncfg, _, err := cfg.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	e, err := Materialize(tw, layout, ncfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if _, err := OperatorsOn(tw, layout, e, "x", cfg, nil); err != nil {
		t.Fatalf("the engine's own request refused: %v", err)
	}

	small := testWorkload(t, 800) // samples to 800 rows, not 1000
	renamed := testWorkload(t, 3_000)
	renamed.Table = schema.MustTable("other", 3_000, renamed.Table.Columns)
	cols := append([]schema.Column(nil), tw.Table.Columns...)
	cols[1].Name = "cost"
	recolumned := testWorkload(t, 3_000)
	recolumned.Table = schema.MustTable("events", 3_000, cols)
	cases := []struct {
		name   string
		tw     schema.TableWorkload
		layout partition.Partitioning
		cfg    Config
		want   string
	}{
		{"other sampled rows", small, partition.Row(small.Table), cfg, "engine stores"},
		{"other max rows", tw, layout, Config{MaxRows: 500, Seed: 1}, "engine stores"},
		{"other table name", renamed, partition.Row(renamed.Table), cfg, "engine stores"},
		{"other columns", recolumned, partition.Row(recolumned.Table), cfg, "engine stores"},
		{"other layout", tw, partition.Column(tw.Table), cfg, "replayed layout"},
		{"layout of another table", tw, partition.Row(small.Table), cfg, "layout partitions"},
	}
	for _, c := range cases {
		if _, err := OperatorsOn(c.tw, c.layout, e, "x", c.cfg, nil); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error = %v, want one mentioning %q", c.name, err, c.want)
		}
	}
}
