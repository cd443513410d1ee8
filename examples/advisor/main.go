// Advisor: physical design for a custom schema.
//
// A fictional telemetry service stores a wide events table and asks: how
// should we vertically partition it for our dashboard workload? This is
// the "physical design tool" use case from the paper's Section 1.3 — with
// the twist that the advisor must first pick a partitioning *algorithm*.
// knives.Advise races AutoPart, HillClimb and HYRISE and recommends the
// cheapest layout per table, reporting each algorithm's cost for
// transparency.
package main

import (
	"fmt"
	"log"
	"sort"

	"knives"
)

func main() {
	events, err := knives.NewTable("events", 500_000_000, []knives.Column{
		{Name: "event_id", Kind: knives.KindInt, Size: 4},
		{Name: "device_id", Kind: knives.KindInt, Size: 4},
		{Name: "ts", Kind: knives.KindDate, Size: 4},
		{Name: "kind", Kind: knives.KindChar, Size: 8},
		{Name: "latitude", Kind: knives.KindDecimal, Size: 8},
		{Name: "longitude", Kind: knives.KindDecimal, Size: 8},
		{Name: "battery", Kind: knives.KindDecimal, Size: 8},
		{Name: "firmware", Kind: knives.KindChar, Size: 12},
		{Name: "payload", Kind: knives.KindVarchar, Size: 180},
	})
	if err != nil {
		log.Fatal(err)
	}
	devices, err := knives.NewTable("devices", 2_000_000, []knives.Column{
		{Name: "device_id", Kind: knives.KindInt, Size: 4},
		{Name: "model", Kind: knives.KindChar, Size: 16},
		{Name: "owner", Kind: knives.KindVarchar, Size: 40},
		{Name: "registered", Kind: knives.KindDate, Size: 4},
		{Name: "notes", Kind: knives.KindVarchar, Size: 120},
	})
	if err != nil {
		log.Fatal(err)
	}

	ref := func(t *knives.Table, names ...string) knives.AttrSet { return t.Attrs(names...) }
	bench := &knives.Benchmark{
		Name:   "telemetry",
		Tables: []*knives.Table{events, devices},
		Workload: knives.Workload{Queries: []knives.Query{
			// The dashboard heartbeat: latest positions, very frequent.
			{ID: "positions", Weight: 50, Refs: map[string]knives.AttrSet{
				"events": ref(events, "device_id", "ts", "latitude", "longitude"),
			}},
			// Battery health report, hourly.
			{ID: "battery", Weight: 10, Refs: map[string]knives.AttrSet{
				"events":  ref(events, "device_id", "ts", "battery"),
				"devices": ref(devices, "device_id", "model"),
			}},
			// Firmware rollout audit, daily.
			{ID: "firmware", Weight: 2, Refs: map[string]knives.AttrSet{
				"events":  ref(events, "device_id", "kind", "firmware"),
				"devices": ref(devices, "device_id", "owner", "registered"),
			}},
			// Full event export, rare.
			{ID: "export", Weight: 1, Refs: map[string]knives.AttrSet{
				"events": events.AllAttrs(),
			}},
		}},
	}
	if err := bench.Validate(); err != nil {
		log.Fatal(err)
	}

	model := knives.NewHDDModel(knives.DefaultDisk())
	advice, err := knives.Advise(bench, model)
	if err != nil {
		log.Fatal(err)
	}
	for _, a := range advice {
		fmt.Printf("%s: recommend %s\n", a.Table.Name, a.Algorithm)
		fmt.Printf("  layout   %s\n", a.Layout)
		fmt.Printf("  cost     %.2f s (row %.2f, column %.2f; vs row %+.1f%%, vs column %+.1f%%)\n",
			a.Cost, a.RowCost, a.ColumnCost,
			a.ImprovementOverRow()*100, a.ImprovementOverColumn()*100)
		names := make([]string, 0, len(a.PerAlgorithm))
		for n := range a.PerAlgorithm {
			names = append(names, n)
		}
		sort.Slice(names, func(i, j int) bool { return a.PerAlgorithm[names[i]] < a.PerAlgorithm[names[j]] })
		fmt.Printf("  ranking ")
		for _, n := range names {
			fmt.Printf("  %s=%.2f", n, a.PerAlgorithm[n])
		}
		fmt.Println()
		fmt.Println()
	}
}
