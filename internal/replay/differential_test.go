package replay

import (
	"fmt"
	"sync"
	"testing"

	"knives/internal/algorithms"
	"knives/internal/cost"
	"knives/internal/partition"
	"knives/internal/schema"
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

var (
	executionsMu sync.Mutex
	executions   = map[string][]*OperatorReplay{}
)

// executed returns the replays, one per batch size, of the layout knife is
// pinned to for tw in bench under device, running it on first use.
func executed(t *testing.T, bench string, tw schema.TableWorkload, device, knife string) []*OperatorReplay {
	t.Helper()
	layout := pinned(t, bench, tw, device, knife)
	key := bench + "/" + device + "/" + tw.Table.Name + layout.String()
	executionsMu.Lock()
	defer executionsMu.Unlock()
	if reps, ok := executions[key]; ok {
		return reps
	}
	cfg := Config{Model: device, MaxRows: 1_500, Seed: 42}
	ncfg, _, err := cfg.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	e, err := Materialize(tw, layout, ncfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	var reps []*OperatorReplay
	for _, batch := range batchSizes {
		cfg.BatchSize = batch
		rep, err := OperatorsOn(tw, layout, e, knife, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		reps = append(reps, rep)
	}
	executions[key] = reps
	return reps
}

// eachPinned calls f in a <bench>/<device>/<knife> subtest for every knife
// and both baselines, once per table of the benchmark.
func eachPinned(t *testing.T, f func(t *testing.T, bench string, reps []*OperatorReplay)) {
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
// predictions exactly — zero tolerance. The same run pins the
// reconstruction guarantee: a query's checksum over the projected values is
// a function of the data alone, so it must be identical across every layout
// and device.
func TestDifferentialAlgorithmsBenchmarksModels(t *testing.T) {
	type queryKey struct {
		bench, table string
		query        int
	}
	want := make(map[queryKey]uint64)
	eachPinned(t, func(t *testing.T, bench string, reps []*OperatorReplay) {
		rep := reps[0]
		if !rep.Exact() {
			t.Errorf("%s: measured != predicted (max |delta| %g)\n%s", rep.Table, rep.MaxAbsDelta(), rep)
		}
		for qi, q := range rep.Queries {
			k := queryKey{bench, rep.Table, qi}
			if prev, ok := want[k]; !ok {
				want[k] = q.Stats.Checksum
			} else if q.Stats.Checksum != prev {
				t.Errorf("%s query %s: checksum %x differs from other layouts' %x — tuple reconstruction is layout-dependent",
					rep.Table, q.ID, q.Stats.Checksum, prev)
			}
		}
	})
}

// The operator-pipeline leg: every query of every pinned layout runs as a
// σ/π/⋈ pipeline whose plan is described, whose per-operator accounting is
// reported, and whose root emits every sampled row (there is no selection).
func TestOperatorsDifferential(t *testing.T) {
	eachPinned(t, func(t *testing.T, _ string, reps []*OperatorReplay) {
		rep := reps[0]
		for qi, q := range rep.Queries {
			if rep.ResultRows[qi] != rep.RowsReplayed {
				t.Errorf("%s query %s: pipeline emitted %d rows, store holds %d",
					rep.Table, q.ID, rep.ResultRows[qi], rep.RowsReplayed)
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
	eachPinned(t, func(t *testing.T, _ string, reps []*OperatorReplay) {
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
