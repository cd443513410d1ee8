package replay

import (
	"fmt"
	"sync"
	"testing"

	"knives/internal/algorithms"
	"knives/internal/cost"
	"knives/internal/partition"
	"knives/internal/schema"
	"knives/internal/storage"
)

// The acceptance matrix extends the crosscheck guarantee from toy tables to
// the layouts the knives advise: each distinct layout internal/algorithms
// pinned for a {TPC-H, SSB} table under {HDD, SSD, MM} is materialized once
// on that device at a sampled row count and executed at every batch size;
// three tests read that execution, each asserting its own facet.
var pins = sync.OnceValues(func() (algorithms.Pins, error) {
	return algorithms.ReadPins("../algorithms/testdata/layouts.golden")
})

// pinned returns the layout knife is pinned to for tw in workload under device.
func pinned(tb testing.TB, workload string, tw schema.TableWorkload, device, knife string) partition.Partitioning {
	tb.Helper()
	ps, err := pins()
	if err != nil {
		tb.Fatal(err)
	}
	_, layout, err := ps.Find(workload, tw.Table, device, knife)
	if err != nil {
		tb.Fatal(err)
	}
	return layout
}

// batchSizes are the rows per batch every pinned layout runs at; the first
// is the operator layer's default.
var batchSizes = []int{1024, 64, 4096}

// pinnedRun is one pinned layout's executions on one device: the report at
// each of batchSizes, and one under sel at 64 rows per batch — 1,500 rows
// make 23 full batches there, so σ sees many batches of one length.
type pinnedRun struct {
	tw       schema.TableWorkload
	reps     []*OperatorReplay
	sel      Selection
	selected *OperatorReplay
}

// The differential's fixed knobs: the sampled rows and data seed the
// generator's answers are derived from, and two partition loaders, so the
// load runs in parallel whatever the core count. The execution is one
// lockstep group, every member sharing σ and column prefixes with the
// others.
const (
	diffRows    = 1_500
	diffSeed    = 42
	diffWorkers = 2
)

var (
	executionsMu sync.Mutex
	executions   = map[string]*pinnedRun{}
)

// executed returns the executions of the layout knife is pinned to for tw
// in bench under device, running them on first use.
func executed(t *testing.T, bench string, tw schema.TableWorkload, device, knife string) *pinnedRun {
	t.Helper()
	layout := pinned(t, bench, tw, device, knife)
	key := bench + "/" + device + "/" + tw.Table.Name + layout.String()
	executionsMu.Lock()
	defer executionsMu.Unlock()
	if run, ok := executions[key]; ok {
		return run
	}
	cfg := Config{Model: device, MaxRows: diffRows, Seed: diffSeed, Workers: diffWorkers}
	ncfg, _, err := cfg.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	e, err := Materialize(tw, layout, ncfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	run := &pinnedRun{tw: tw, sel: selectionFor(tw.Table, e.Rows())}
	for _, batch := range batchSizes {
		cfg.BatchSize = batch
		rep, err := OperatorsOn(tw, layout, e, knife, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		run.reps = append(run.reps, rep)
	}
	cfg.BatchSize = 64
	if run.selected, err = OperatorsOn(tw, layout, e, knife, cfg, &run.sel); err != nil {
		t.Fatal(err)
	}
	executions[key] = run
	return run
}

// selectionFor picks the differential's σ for a table: its first date
// column below the middle of the date domain, else its first int column
// (generated as the row number plus a little jitter) below half the rows.
func selectionFor(tbl *schema.Table, rows int64) Selection {
	for i, c := range tbl.Columns {
		if c.Kind == schema.KindDate && c.Size >= 4 {
			return Selection{Attr: i, Bound: storage.DateDomain / 2}
		}
	}
	for i, c := range tbl.Columns {
		if c.Kind == schema.KindInt && c.Size >= 4 {
			return Selection{Attr: i, Bound: uint32(rows / 2)}
		}
	}
	panic("replay: table " + tbl.Name + " has no int or date column to select on")
}

// eachPinned calls f in a <bench>/<device>/<knife> subtest for every knife
// and both baselines, once per table of the benchmark.
func eachPinned(t *testing.T, f func(t *testing.T, bench string, run *pinnedRun)) {
	knives := []string{"AutoPart", "HillClimb", "HYRISE", "Navathe", "O2P", "Trojan", "BruteForce", "Row", "Column"}
	for _, b := range []*schema.Benchmark{schema.TPCH(10), schema.SSB(10)} {
		t.Run(b.Name, func(t *testing.T) {
			for _, device := range []string{"hdd", "ssd", "mm"} {
				for _, knife := range knives {
					t.Run(device+"/"+knife, func(t *testing.T) {
						for _, tw := range b.TableWorkloads() {
							f(t, b.Name, executed(t, b.Name, tw, device, knife))
						}
					})
				}
			}
		})
	}
}

// Measured seeks, bytes, and simulated time equal the cost model's
// predictions exactly — zero tolerance — with and without a σ. The same
// runs pin the reconstruction guarantee: every query's checksum over the
// projected values and its result rows are the ones the data generator and
// the digest's definition give (Expected), on every layout and device, so
// tuple reconstruction, σ and the lockstep group's shared work are all
// invisible in them.
func TestDifferentialAlgorithmsBenchmarksModels(t *testing.T) {
	type tableKey struct {
		bench, table string
		selected     bool
	}
	oracle := make(map[tableKey][]Answer)
	eachPinned(t, func(t *testing.T, bench string, run *pinnedRun) {
		for _, rep := range []*OperatorReplay{run.reps[0], run.selected} {
			if !rep.Exact() {
				t.Errorf("%s σ=%q: measured != predicted (max |delta| %g)\n%s", rep.Table, rep.Selection, rep.MaxAbsDelta(), rep)
			}
			var sel *Selection
			if rep.Selection != "" {
				sel = &run.sel
			}
			k := tableKey{bench, rep.Table, sel != nil}
			want, ok := oracle[k]
			if !ok {
				tw := schema.TableWorkload{Table: rep.Layout.Table, Queries: run.tw.Queries}
				want = Expected(tw, rep.RowsReplayed, diffSeed, sel)
				oracle[k] = want
			}
			for qi, q := range rep.Queries {
				if q.Stats.Checksum != want[qi].Checksum || q.Stats.Tuples != want[qi].Rows {
					t.Errorf("%s query %s σ=%q: checksum %x over %d rows, the generator's rows give %x over %d",
						rep.Table, q.ID, rep.Selection, q.Stats.Checksum, q.Stats.Tuples, want[qi].Checksum, want[qi].Rows)
				}
			}
		}
	})
}

// The operator-pipeline leg: every query of every pinned layout runs as a
// σ/π/⋈ pipeline whose plan is described, whose per-operator accounting is
// reported, and whose root emits every sampled row (there is no selection).
func TestOperatorsDifferential(t *testing.T) {
	eachPinned(t, func(t *testing.T, _ string, run *pinnedRun) {
		rep := run.reps[0]
		for qi, q := range rep.Queries {
			if q.Stats.Tuples != rep.RowsReplayed {
				t.Errorf("%s query %s: pipeline emitted %d rows, store holds %d",
					rep.Table, q.ID, q.Stats.Tuples, rep.RowsReplayed)
			}
			if rep.Plans[qi] == "" {
				t.Errorf("%s query %s: empty plan description", rep.Table, q.ID)
			}
			if len(rep.Ops[qi]) == 0 {
				t.Errorf("%s query %s: no per-operator stats", rep.Table, q.ID)
			}
		}
	})
}

// TestOperatorsVectorDifferential is the batch-size leg, on what only real
// advised layouts add (wide partitions, many leaves, page runs of every
// length): the reports at every batch size are equal in every field but
// wall clock and the per-batch fill ratios — every plan, every OpStats,
// every checksum — and each is exact against the model. The row oracle
// lives in the operator package's tests (TestVectorEqualsRowOracle,
// FuzzVectorVsRowOracle).
func TestOperatorsVectorDifferential(t *testing.T) {
	eachPinned(t, func(t *testing.T, _ string, run *pinnedRun) {
		reps := run.reps
		for i, got := range reps {
			if !got.Exact() {
				t.Errorf("%s batch %d: executed != predicted (max |delta| %g)",
					got.Table, batchSizes[i], got.MaxAbsDelta())
			}
			for qi, q := range got.Queries {
				if len(got.FillRatios[qi]) == 0 {
					t.Errorf("%s query %s batch %d: no fill ratios", got.Table, q.ID, batchSizes[i])
				}
			}
			g := *got
			g.FillRatios = reps[0].FillRatios // one per batch, so batch-size-dependent
			sameReport(t, fmt.Sprintf("%s batch %d vs %d", got.Table, batchSizes[i], batchSizes[0]), &g, reps[0])
		}
	})
}

// refillBuffer is a device buffer of four 8 KiB pages. Under the presets'
// 8 MiB buffer every partition of a 1,500-row sample fits one buffer fill,
// so the suite above never counts a refill; under this one the wider
// partitions of a fact table span several.
const refillBuffer = 32 << 10

// TestDifferentialBufferRefills is the refill leg: the pinned HillClimb, Row
// and Column layouts of both fact tables run on every device with its buffer
// shrunk to refillBuffer, still exact against the model, and at least one
// partition of each layout must take more than one buffer fill. No layout is
// searched for the small buffer: the model prices any layout on any device.
func TestDifferentialBufferRefills(t *testing.T) {
	facts := map[string]string{"TPC-H": "lineitem", "SSB": "lineorder"}
	for _, b := range []*schema.Benchmark{schema.TPCH(10), schema.SSB(10)} {
		tw := b.Workload.ForTable(b.Table(facts[b.Name]))
		for _, device := range []string{"hdd", "ssd", "mm"} {
			for _, knife := range []string{"HillClimb", "Row", "Column"} {
				t.Run(b.Name+"/"+device+"/"+knife, func(t *testing.T) {
					cfg := Config{Model: device, Disk: cost.Device{BufferSize: refillBuffer}, MaxRows: 1_500, Seed: 42}
					rep, err := Operators(tw, pinned(t, b.Name, tw, device, knife), knife, cfg, nil)
					if err != nil {
						t.Fatal(err)
					}
					if !rep.Exact() {
						t.Errorf("measured != predicted (max |delta| %g)\n%s", rep.MaxAbsDelta(), rep)
					}
					var most int64
					for _, q := range rep.Queries {
						for _, p := range q.Stats.Parts {
							most = max(most, p.Seeks)
						}
					}
					if most < 2 {
						t.Errorf("no partition took a second buffer fill (most seeks %d): the leg counts no refill", most)
					}
				})
			}
		}
	}
}
