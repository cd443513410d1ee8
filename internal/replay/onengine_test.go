package replay

import (
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"

	"knives/internal/attrset"
	"knives/internal/cost"
	"knives/internal/partition"
	"knives/internal/schema"
	"knives/internal/storage"
)

// TestOnEngineMatchesLayout: replaying a caller-materialized engine through
// OperatorsOn must produce exactly the report a from-scratch Layout replay
// produces for the same layout, seed, and model (wall clock aside).
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
			// The model's device names the cache line the replay is priced in.
			e, err := storage.NewEngine(layout, m.(*cost.DeviceModel).Device(), nil)
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			if err := e.Load(storage.NewGenerator(ncfg.Seed), tw.Table.Rows); err != nil {
				t.Fatal(err)
			}
			got, err := OperatorsOn(tw, layout, e, "test", cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Exact() {
				t.Error("replay on the caller's engine not exact against the model")
			}
			if got.MeasuredTotal != want.MeasuredTotal || got.PredictedTotal != want.PredictedTotal {
				t.Errorf("engine replay totals %.18g/%.18g != Layout's %.18g/%.18g",
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
// layout was swapped in place replays exactly like the target layout, and
// is refused as a store of the layout it held before.
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
	if _, err := OperatorsOn(tw, from, e, "migrated", cfg, nil); err == nil || !strings.Contains(err.Error(), "replayed layout") {
		t.Errorf("a repartitioned engine verified as its old layout: %v", err)
	}
	got, err := OperatorsOn(tw, to, e, "migrated", cfg, nil)
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
	other := testWorkload(t, 400)
	layout := partition.Row(tw.Table)
	e, err := storage.NewEngine(layout, cost.DefaultDisk(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.Load(storage.NewGenerator(1), tw.Table.Rows); err != nil {
		t.Fatal(err)
	}
	if _, err := OperatorsOn(other, partition.Row(other.Table), e, "x", Config{}, nil); err == nil {
		t.Error("foreign workload accepted")
	}
	if _, err := OperatorsOn(schema.TableWorkload{}, layout, e, "x", Config{}, nil); err == nil {
		t.Error("nil table accepted")
	}
	if _, err := OperatorsOn(tw, layout, e, "x", Config{Model: "quantum"}, nil); err == nil {
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
			rep, err := OperatorsOn(tw, partition.Column(tw.Table), e, "shared", cfg, nil)
			if err != nil {
				t.Error(err)
			} else if !rep.Exact() {
				t.Error("concurrent replay of a shared engine not exact")
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

// TestOperatorsOnAllocations pins what the served /query shape allocates
// below the report encoder: OperatorsOn over a resident 20k-row lineitem
// store in its pinned HillClimb layout, σ on l_shipdate, one lockstep group
// on the calling goroutine. Per call: every pipeline's leaves, cursors and
// operators, the group's σ buffer and column list, and the report. The
// ceilings are the values measured once the group digest summed each
// distinct column instead of folding a prefix trie of row-hash vectors
// (1,407 allocations and 125,865 bytes on go1.24, linux/amd64; bytes get
// 0.1 % of slack; 1,447 and 144,241 with the trie); a change that
// allocates more per request fails here first.
func TestOperatorsOnAllocations(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector's instrumentation moves allocations to the heap; the ceilings are the plain build's")
	}
	const maxAllocs, maxBytes = 1_407, 126_000
	tw := lineitem()
	cfg := Config{MaxRows: 20_000, Seed: 1}
	ncfg, _, err := cfg.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	layout := pinned(t, "TPC-H", tw, "hdd", "HillClimb")
	e, err := Materialize(tw, layout, ncfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	sel := &Selection{Attr: tw.Table.AttrIndex("l_shipdate"), Bound: 1263}
	run := func() {
		if _, err := OperatorsOn(tw, layout, e, "HillClimb", cfg, sel); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(5, run)
	// Bytes: the least of three five-call averages, since anything else
	// allocating in the process only ever adds.
	bytes := uint64(math.MaxUint64)
	for range 3 {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for range 5 {
			run()
		}
		runtime.ReadMemStats(&m1)
		bytes = min(bytes, (m1.TotalAlloc-m0.TotalAlloc)/5)
	}
	t.Logf("OperatorsOn: %.0f allocations, %d bytes per call", allocs, bytes)
	if allocs > maxAllocs || bytes > maxBytes {
		t.Errorf("OperatorsOn allocates %.0f times and %d bytes per call; the ceilings are %d and %d",
			allocs, bytes, maxAllocs, maxBytes)
	}
}
