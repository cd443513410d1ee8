// Replay walkthrough: from advice to executed I/O in one sitting.
//
// The paper's verdicts are estimated costs; the advisor picks layouts by
// those estimates; and the replay subsystem is the receipt: it materializes
// the advised layout through the storage engine, executes the real TPC-H
// per-table workload over the pages with a parallel worker pool, and checks
// that the measured seeks, bytes, and simulated time equal the cost model's
// predictions bit for bit. This example replays Lineitem's portfolio winner
// against the Row and Column baselines and prints the measured ranking —
// Figure 3's conclusion, re-derived from execution instead of estimation.
package main

import (
	"fmt"
	"log"
	"sort"

	"knives"
)

func main() {
	bench := knives.TPCH(10)
	model := knives.NewHDDModel(knives.DefaultDisk())

	// 1. Advise: race AutoPart, HillClimb and HYRISE on every table, keep
	// the cheapest layout. (The search runs on the FULL-scale workload; only
	// the physical copy below is sampled.)
	advice, err := knives.Advise(bench, model)
	if err != nil {
		log.Fatal(err)
	}
	var lineitem knives.TableAdvice
	for _, a := range advice {
		if a.Table.Name == "lineitem" {
			lineitem = a
		}
	}
	fmt.Printf("advice: %s via %s, estimated %.1f s/workload\n\n",
		lineitem.Table.Name, lineitem.Algorithm, lineitem.Cost)

	// 2. Replay: materialize a 50k-row sample of each layout and execute
	// all Lineitem queries against the pages.
	tw := bench.Workload.ForTable(bench.Table("lineitem"))
	cfg := knives.ReplayConfig{MaxRows: 50_000, Seed: 1}

	type run struct {
		name string
		rep  *knives.TableReplay
	}
	var runs []run
	advised, err := knives.ReplayAdvice(tw, lineitem, cfg)
	if err != nil {
		log.Fatal(err)
	}
	runs = append(runs, run{lineitem.Algorithm + " (advised)", advised})
	for _, baseline := range []string{"Row", "Column"} {
		rep, err := knives.ReplayAlgorithm(tw, baseline, cfg)
		if err != nil {
			log.Fatal(err)
		}
		runs = append(runs, run{baseline, rep})
	}

	// 3. The receipt: every layout reconstructed identical tuples (same
	// per-query checksums), every measurement equals its prediction, and
	// the measured ranking reproduces the estimated one.
	fmt.Printf("%-22s %14s %14s %8s %12s\n", "layout", "measured(s)", "predicted(s)", "exact", "bytes read")
	for _, r := range runs {
		fmt.Printf("%-22s %14.6f %14.6f %8v %12d\n",
			r.name, r.rep.MeasuredTotal, r.rep.PredictedTotal, r.rep.Exact(), r.rep.BytesRead)
	}
	for qi := range runs[0].rep.Queries {
		for _, r := range runs[1:] {
			if r.rep.Queries[qi].Stats.Checksum != runs[0].rep.Queries[qi].Stats.Checksum {
				log.Fatalf("layout %s reconstructed different tuples for query %s",
					r.name, r.rep.Queries[qi].ID)
			}
		}
	}
	sort.Slice(runs, func(i, j int) bool { return runs[i].rep.MeasuredTotal < runs[j].rep.MeasuredTotal })
	fmt.Printf("\nmeasured ranking: ")
	for i, r := range runs {
		if i > 0 {
			fmt.Print(" < ")
		}
		fmt.Print(r.name)
	}
	fmt.Println("\nall checksums layout-invariant: tuple reconstruction verified")
}
