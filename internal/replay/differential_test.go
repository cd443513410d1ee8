package replay

import (
	"fmt"
	"testing"

	"knives/internal/algo"
	"knives/internal/schema"
)

// The acceptance matrix, extending the crosscheck guarantee from random toy
// tables to the layouts the algorithms actually advise: for EVERY algorithm
// (plus the Row/Column baselines) x {TPC-H, SSB} table x {HDD, SSD, MM}
// device, the replayed measured seeks, bytes, and simulated time must equal
// the cost model's predictions exactly — zero tolerance. Layouts are
// searched at full scale (the paper's setting) and materialized at a
// sampled row count.
//
// The same run pins the reconstruction guarantee: a query's checksum over
// the projected values is a function of the data alone, so it must be
// identical across every layout and both cost models.
func TestDifferentialAlgorithmsBenchmarksModels(t *testing.T) {
	layouts := []string{"AutoPart", "HillClimb", "HYRISE", "Navathe", "O2P", "Trojan", "BruteForce", "Row", "Column"}
	if testing.Short() {
		layouts = []string{"HillClimb", "Row", "Column"}
	}
	benches := []*schema.Benchmark{schema.TPCH(10), schema.SSB(10)}
	for _, b := range benches {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			// Per-query checksums, keyed by table and query position,
			// shared across all layouts and models of this benchmark.
			type queryKey struct {
				table string
				query int
			}
			want := make(map[queryKey]uint64)
			for _, model := range []string{"hdd", "ssd", "mm"} {
				for _, name := range layouts {
					t.Run(fmt.Sprintf("%s/%s", model, name), func(t *testing.T) {
						tws := b.TableWorkloads()
						reps := make([]*TableReplay, len(tws))
						err := algo.FanOut(len(tws), func(i int) (err error) {
							reps[i], err = replayAlgorithm(tws[i], name, Config{Model: model, MaxRows: 1_500, Seed: 42})
							return err
						})
						if err != nil {
							t.Fatal(err)
						}
						for _, rep := range reps {
							if !rep.Exact() {
								t.Errorf("%s: measured != predicted (max |delta| %g)",
									rep.Table, rep.MaxAbsDelta())
								for _, q := range rep.Queries {
									if !q.Exact() {
										t.Logf("  %s: seeks %d/%d bytes %d/%d seconds %.18g/%.18g",
											q.ID, q.Stats.Seeks, q.PredictedSeeks,
											q.Stats.BytesRead, q.PredictedBytes,
											q.MeasuredSeconds, q.PredictedSeconds)
									}
								}
							}
							for qi, q := range rep.Queries {
								k := queryKey{rep.Table, qi}
								if prev, ok := want[k]; !ok {
									want[k] = q.Stats.Checksum
								} else if q.Stats.Checksum != prev {
									t.Errorf("%s query %s: checksum %x differs from other layouts' %x — tuple reconstruction is layout-dependent",
										rep.Table, q.ID, q.Stats.Checksum, prev)
								}
							}
						}
					})
				}
			}
		})
	}
}
