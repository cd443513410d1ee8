package algorithms_test

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"knives/internal/algo"
	"knives/internal/algorithms"
	"knives/internal/cost"
	"knives/internal/partition"
	"knives/internal/schema"
	"knives/internal/workgen"
)

var update = flag.Bool("update", false, "rewrite testdata/layouts.golden")

const pinsFile = "testdata/layouts.golden"

// A cell is one search input, a table's workload in a named workload set
// priced under one device, with each knife's result on it.
type cell struct {
	workload, device string
	tw               schema.TableWorkload
	model            cost.Model
	knives           []string
	results          []algo.Result // index-aligned with knives
}

func (c *cell) result(knife string) algo.Result {
	return c.results[slices.Index(c.knives, knife)]
}

// searched runs every search once per test binary: the seven knives, plus
// Row and Column, on every TPC-H and SSB table at SF 10 under each device,
// and the six heuristics on the migrate suite's drifted fact-table mixes.
// BruteForce, nearly all of this function's time, is left off those: it
// found AutoPart's and HYRISE's layout on all six when they were pinned.
var searched = sync.OnceValues(func() ([]*cell, error) {
	var heuristics []string
	for _, a := range algorithms.Heuristics() {
		heuristics = append(heuristics, a.Name())
	}
	all := append(slices.Clone(heuristics), "BruteForce", "Row", "Column")
	facts := map[string]string{"TPC-H": "lineitem", "SSB": "lineorder"}
	var cells []*cell
	for _, b := range []*schema.Benchmark{schema.TPCH(10), schema.SSB(10)} {
		for _, dev := range []string{"hdd", "ssd", "mm"} {
			m, err := cost.ModelByName(dev, cost.Device{})
			if err != nil {
				return nil, err
			}
			for _, tw := range b.TableWorkloads() {
				cells = append(cells, &cell{workload: b.Name, device: dev, tw: tw, model: m, knives: all})
			}
			fact := b.Workload.ForTable(b.Table(facts[b.Name]))
			cells = append(cells, &cell{workload: b.Name + "+drift", device: dev,
				tw: workgen.Drift(fact, 0.5, 42), model: m, knives: heuristics})
		}
	}
	return cells, algo.FanOut(len(cells), func(i int) error {
		c := cells[i]
		for _, k := range c.knives {
			var res algo.Result
			switch k {
			case "Row", "Column":
				res.Partitioning = partition.Row(c.tw.Table)
				if k == "Column" {
					res.Partitioning = partition.Column(c.tw.Table)
				}
				res.Cost = cost.WorkloadCost(c.model, c.tw, res.Partitioning.Parts)
			default:
				a, err := algorithms.ByName(k)
				if err != nil {
					return err
				}
				algo.AcquireSearchSlot()
				res, err = a.Partition(c.tw, c.model)
				algo.ReleaseSearchSlot()
				if err != nil {
					return err
				}
			}
			c.results = append(c.results, res)
		}
		return nil
	})
})

func searchedCells(t *testing.T) []*cell {
	t.Helper()
	cells, err := searched()
	if err != nil {
		t.Fatal(err)
	}
	return cells
}

// TestLayoutsGolden pins what every knife finds in testdata/layouts.golden
// (one line per distinct layout, in Pin's format), so a changed knife output
// fails here; the execution suites in internal/replay and internal/migrate
// read it instead of searching. Rewrite with
//
//	go test ./internal/algorithms -run TestLayoutsGolden -update
func TestLayoutsGolden(t *testing.T) {
	cells := searchedCells(t)
	var b strings.Builder
	b.WriteString("# What every knife finds: <workload> <table> <device> <cost> <knives> <layout>.\n" +
		"# Workloads are TPC-H and SSB at SF 10 and, as +drift, their fact table under\n" +
		"# workgen.Drift(fact, 0.5, 42); BruteForce is not searched on the +drift mixes.\n" +
		"# Rewrite: go test ./internal/algorithms -run TestLayoutsGolden -update\n")
	for _, c := range cells {
		var lines []string
		knivesOf := map[string][]string{}
		for i, k := range c.knives {
			layout := c.results[i].Partitioning.String()
			if knivesOf[layout] == nil {
				lines = append(lines, layout)
			}
			knivesOf[layout] = append(knivesOf[layout], k)
		}
		for _, layout := range lines {
			parts := c.result(knivesOf[layout][0]).Partitioning.Parts
			fmt.Fprintf(&b, "%s %s %s %s %s %s\n", c.workload, c.tw.Table.Name, c.device,
				strconv.FormatFloat(cost.WorkloadCost(c.model, c.tw, parts), 'g', -1, 64),
				strings.Join(knivesOf[layout], ","), layout)
		}
	}
	if *update {
		if err := os.WriteFile(pinsFile, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(pinsFile)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("knife outputs differ from %s; rewrite it with -update and read the diff. Searched:\n%s", pinsFile, got)
	}

	// The reader gives back exactly what was searched.
	pins, err := algorithms.ReadPins(pinsFile)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cells {
		for i, k := range c.knives {
			p, layout, err := pins.Find(c.workload, c.tw.Table, c.device, k)
			want := c.results[i].Partitioning
			if err != nil || !layout.Equal(want) || p.Cost != cost.WorkloadCost(c.model, c.tw, want.Parts) {
				t.Errorf("%s/%s/%s/%s: read back %s (%v) at %v, searched %s", c.workload, c.tw.Table.Name,
					c.device, k, layout, err, p.Cost, want)
			}
		}
	}
}

// Paper lesson 1: HillClimb and AutoPart find layouts within 1 % of
// BruteForce's cost, and never cheaper, on every TPC-H and SSB table under
// every device, while evaluating orders of magnitude fewer candidates on
// the wide tables.
func TestHillClimbAndAutoPartMatchBruteForce(t *testing.T) {
	for _, c := range searchedCells(t) {
		if strings.HasSuffix(c.workload, "+drift") {
			continue
		}
		optimal := c.result("BruteForce")
		for _, name := range []string{"HillClimb", "AutoPart"} {
			res := c.result(name)
			// Greedy search can in principle be beaten, but on these
			// workloads the paper observes exact ties; allow a 1% band for
			// block-packing rounding asymmetries between the searches.
			if res.Cost > optimal.Cost*1.01+1e-9 {
				t.Errorf("%s on %s/%s under %s: cost %v, BruteForce %v (>1%% off)",
					name, c.workload, c.tw.Table.Name, c.device, res.Cost, optimal.Cost)
			}
			if res.Cost < optimal.Cost-1e-6 {
				t.Errorf("%s on %s/%s under %s: cost %v beats BruteForce %v — brute force must be optimal",
					name, c.workload, c.tw.Table.Name, c.device, res.Cost, optimal.Cost)
			}
		}
		if c.tw.Table.Name == "lineitem" && c.device == "hdd" {
			if hc := c.result("HillClimb"); optimal.Stats.Candidates < 1000*hc.Stats.Candidates {
				t.Errorf("lineitem: BruteForce evaluated %d candidates vs HillClimb %d — expected >=3 orders of magnitude more",
					optimal.Stats.Candidates, hc.Stats.Candidates)
			}
		}
	}
}
