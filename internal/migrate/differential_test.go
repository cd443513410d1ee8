package migrate

import (
	"fmt"
	"testing"

	"knives/internal/algorithms"
	"knives/internal/cost"
	"knives/internal/partition"
	"knives/internal/schema"
	"knives/internal/workgen"
)

// The migration acceptance matrix: for EVERY algorithm x {TPC-H, SSB} x
// {HDD, SSD, MM}, the transition from the algorithm's layout for the original
// fact-table workload to its layout for a drifted variant is executed on
// the storage engine, and
//
//  1. the measured repartition cost must equal the migration cost model's
//     prediction bit for bit, and
//  2. the migrated store must hold the target layout, replay exactly
//     against the cost model, and give every query the checksum and result
//     rows the data generator gives (zero tolerance).
//
// Layouts are the ones internal/algorithms searched at FULL scale (the
// paper's setting) and pinned; each distinct (from, to) pair is executed
// once per device, on a store materialized at a sampled row count like the
// replay differential suite's. BruteForce is not searched on the drifted
// mixes: its target is AutoPart's, which it equalled on all six (benchmark,
// device) pairs when the layouts were pinned.
func TestDifferentialMigrationAlgorithmsBenchmarksModels(t *testing.T) {
	pins, err := algorithms.ReadPins("../algorithms/testdata/layouts.golden")
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"AutoPart", "HillClimb", "HYRISE", "Navathe", "O2P", "Trojan", "BruteForce"}
	facts := map[string]string{"TPC-H": "lineitem", "SSB": "lineorder"}
	for _, b := range []*schema.Benchmark{schema.TPCH(10), schema.SSB(10)} {
		t.Run(b.Name, func(t *testing.T) {
			tw := b.Workload.ForTable(b.Table(facts[b.Name]))
			drifted := workgen.Drift(tw, 0.5, 42)
			for _, model := range []string{"hdd", "ssd", "mm"} {
				reports := map[string]*Report{}
				for _, name := range names {
					t.Run(fmt.Sprintf("%s/%s", model, name), func(t *testing.T) {
						_, from, err := pins.Find(b.Name, tw.Table, model, name)
						if err != nil {
							t.Fatal(err)
						}
						target := name
						if name == "BruteForce" {
							target = "AutoPart"
						}
						_, to, err := pins.Find(b.Name+"+drift", drifted.Table, model, target)
						if err != nil {
							t.Fatal(err)
						}
						key := from.String() + " -> " + to.String()
						rep, ok := reports[key]
						if !ok {
							m, err := cost.ModelByName(model, cost.Device{})
							if err != nil {
								t.Fatal(err)
							}
							p, err := New(drifted, from, to, m, 0)
							if err != nil {
								t.Fatal(err)
							}
							p.FromAlgorithm, p.ToAlgorithm = name, name
							if rep, err = Execute(drifted, p, Config{Model: model, MaxRows: 1_500, Seed: 42}); err != nil {
								t.Fatal(err)
							}
							reports[key] = rep
						}
						if !rep.CostExact() {
							t.Errorf("measured migration cost != predicted %+v (measured lines %d/%d):\n%s",
								rep.Predicted, rep.Measured.LinesRead, rep.Measured.LinesWritten, rep)
						}
						if !rep.VerifyExact() {
							t.Errorf("the migrated store of %s does not verify against the generator:\n%s", to, rep)
						}
					})
				}
			}
		})
	}
}

// refillBuffer is a device buffer of four 8 KiB pages: at 1,500 sampled rows
// the wider partitions of a fact table span several buffer fills, which under
// the presets' 8 MiB buffer no partition does.
const refillBuffer = 32 << 10

// TestMigrationBufferRefills is the refill leg of the matrix above, on each
// fact table and every device with the buffer shrunk to refillBuffer: the
// pinned HillClimb transition to its drifted layout, and Row to Column,
// which moves every byte. The repartition's refill accounting and the
// verification scans' must both still equal the model's; every verification
// refills, and so does the Row to Column repartition's read of the one wide
// partition.
func TestMigrationBufferRefills(t *testing.T) {
	pins, err := algorithms.ReadPins("../algorithms/testdata/layouts.golden")
	if err != nil {
		t.Fatal(err)
	}
	small := cost.Device{BufferSize: refillBuffer}
	facts := map[string]string{"TPC-H": "lineitem", "SSB": "lineorder"}
	for _, b := range []*schema.Benchmark{schema.TPCH(10), schema.SSB(10)} {
		tw := b.Workload.ForTable(b.Table(facts[b.Name]))
		drifted := workgen.Drift(tw, 0.5, 42)
		for _, model := range []string{"hdd", "ssd", "mm"} {
			_, hcFrom, err := pins.Find(b.Name, tw.Table, model, "HillClimb")
			if err != nil {
				t.Fatal(err)
			}
			_, hcTo, err := pins.Find(b.Name+"+drift", drifted.Table, model, "HillClimb")
			if err != nil {
				t.Fatal(err)
			}
			for _, tr := range []struct {
				name     string
				from, to partition.Partitioning
			}{
				{"HillClimb", hcFrom, hcTo},
				{"Row->Column", partition.Row(drifted.Table), partition.Column(drifted.Table)},
			} {
				t.Run(b.Name+"/"+model+"/"+tr.name, func(t *testing.T) {
					m, err := cost.ModelByName(model, small)
					if err != nil {
						t.Fatal(err)
					}
					p, err := New(drifted, tr.from, tr.to, m, 0)
					if err != nil {
						t.Fatal(err)
					}
					rep, err := Execute(drifted, p, Config{Model: model, Disk: small, MaxRows: 1_500, Seed: 42})
					if err != nil {
						t.Fatal(err)
					}
					if !rep.CostExact() {
						t.Errorf("measured migration cost != predicted %+v:\n%s", rep.Predicted, rep)
					}
					if !rep.VerifyExact() {
						t.Errorf("the migrated store of %s does not verify against the generator:\n%s", tr.to, rep)
					}
					var most int64
					for _, q := range rep.Migrated.Queries {
						for _, p := range q.Stats.Parts {
							most = max(most, p.Seeks)
						}
					}
					if most < 2 {
						t.Errorf("no verified partition took a second buffer fill (most seeks %d)", most)
					}
					if tr.name == "Row->Column" && rep.Measured.SeeksRead < 2 {
						t.Errorf("repartition read the row partition in %d buffer fill(s): no refill", rep.Measured.SeeksRead)
					}
				})
			}
		}
	}
}
