package knives_test

import (
	"math"
	"strings"
	"testing"

	"knives"
	advisorpkg "knives/internal/advisor"
)

func TestPublicQuickstart(t *testing.T) {
	bench := knives.TPCH(10)
	model := knives.NewHDDModel(knives.DefaultDisk())
	hc, err := knives.AlgorithmByName("HillClimb")
	if err != nil {
		t.Fatal(err)
	}
	tw := bench.Workload.ForTable(bench.Table("partsupp"))
	res, err := hc.Partition(tw, model)
	if err != nil {
		t.Fatal(err)
	}
	got := res.Partitioning.String()
	// The always-co-accessed keys stay together; the unreferenced comment
	// is isolated (paper, Figure 14(h) and the introduction's P1/P3).
	if !strings.Contains(got, "ps_partkey ps_suppkey") {
		t.Errorf("partsupp layout = %s: keys should share a partition", got)
	}
	if !strings.Contains(got, "| ps_comment") && !strings.HasPrefix(got, "[ps_comment |") {
		t.Errorf("partsupp layout = %s: comment should be isolated", got)
	}
	if res.Cost <= 0 || res.Stats.Candidates <= 0 {
		t.Errorf("degenerate result: %+v", res)
	}
}

func TestPublicBaselinesAndCost(t *testing.T) {
	bench := knives.TPCH(1)
	model := knives.NewHDDModel(knives.DefaultDisk())
	tw := bench.Workload.ForTable(bench.Table("lineitem"))
	row := knives.WorkloadCost(model, tw, knives.RowLayout(tw.Table))
	col := knives.WorkloadCost(model, tw, knives.ColumnLayout(tw.Table))
	if col >= row {
		t.Errorf("column (%v) should beat row (%v) on lineitem", col, row)
	}
}

func TestPublicCustomTable(t *testing.T) {
	tab, err := knives.NewTable("events", 1_000_000, []knives.Column{
		{Name: "id", Kind: knives.KindInt, Size: 4},
		{Name: "ts", Kind: knives.KindDate, Size: 4},
		{Name: "payload", Kind: knives.KindVarchar, Size: 200},
	})
	if err != nil {
		t.Fatal(err)
	}
	tw := knives.TableWorkload{Table: tab, Queries: []knives.TableQuery{
		{ID: "recent", Weight: 10, Attrs: knives.Attrs(0, 1)},
		{ID: "full", Weight: 1, Attrs: knives.Attrs(0, 1, 2)},
	}}
	model := knives.NewHDDModel(knives.DefaultDisk())
	for _, a := range knives.Algorithms() {
		res, err := a.Partition(tw, model)
		if err != nil {
			t.Fatalf("%s: %v", a.Name(), err)
		}
		if err := res.Partitioning.Validate(); err != nil {
			t.Errorf("%s: %v", a.Name(), err)
		}
	}
}

func TestAdvise(t *testing.T) {
	bench := knives.TPCH(1)
	model := knives.NewHDDModel(knives.DefaultDisk())
	advice, err := knives.Advise(bench, model)
	if err != nil {
		t.Fatal(err)
	}
	if len(advice) != len(bench.Tables) {
		t.Fatalf("advice for %d tables, want %d", len(advice), len(bench.Tables))
	}
	for _, a := range advice {
		if a.Cost > a.ColumnCost+1e-9 {
			t.Errorf("%s: recommended cost %v worse than column %v", a.Table.Name, a.Cost, a.ColumnCost)
		}
		if a.Cost > a.RowCost+1e-9 {
			t.Errorf("%s: recommended cost %v worse than row %v", a.Table.Name, a.Cost, a.RowCost)
		}
		if a.ImprovementOverRow() < 0 {
			t.Errorf("%s: negative improvement over row", a.Table.Name)
		}
		if len(a.PerAlgorithm) != len(advisorpkg.PortfolioNames()) {
			t.Errorf("%s: PerAlgorithm = %v, want one entry per served knife %v", a.Table.Name, a.PerAlgorithm, advisorpkg.PortfolioNames())
		}
		for _, name := range advisorpkg.PortfolioNames() {
			if _, ok := a.PerAlgorithm[name]; !ok {
				t.Errorf("%s: PerAlgorithm has no %s entry: %v", a.Table.Name, name, a.PerAlgorithm)
			}
		}
	}
	// Lineitem is the table where partitioning matters: the advisor must
	// find an improvement over row of roughly the paper's 80%.
	for _, a := range advice {
		if a.Table.Name != "lineitem" {
			continue
		}
		if imp := a.ImprovementOverRow(); imp < 0.6 {
			t.Errorf("lineitem improvement over row = %v, paper ~0.8", imp)
		}
	}
	if _, err := knives.Advise(nil, model); err == nil {
		t.Error("Advise accepted nil benchmark")
	}
	// Nil model defaults to the paper's HDD model.
	if _, err := knives.Advise(bench, nil); err != nil {
		t.Errorf("Advise with nil model: %v", err)
	}
}

func TestPublicExperimentRegistry(t *testing.T) {
	if got := len(knives.Experiments()); got != 29 {
		t.Errorf("Experiments() has %d entries, want 29", got)
	}
	// Run the cheapest experiment end to end through the public API.
	rep, err := knives.RunExperiment("tab4")
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 6 {
		t.Errorf("tab4 rows = %d, want 6", len(rep.Rows))
	}
	if _, err := knives.RunExperiment("nope"); err == nil {
		t.Error("RunExperiment accepted unknown id")
	}
}

func TestPublicEngine(t *testing.T) {
	tab, err := knives.NewTable("t", 5000, []knives.Column{
		{Name: "a", Kind: knives.KindInt, Size: 4},
		{Name: "b", Kind: knives.KindVarchar, Size: 32},
	})
	if err != nil {
		t.Fatal(err)
	}
	e, err := knives.NewEngine(knives.ColumnLayout(tab), knives.DefaultDisk())
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.Load(knives.NewGenerator(1), tab.Rows); err != nil {
		t.Fatal(err)
	}
	if e.Rows() != tab.Rows || e.Bytes() <= 0 {
		t.Errorf("loaded store: %d rows, %d bytes", e.Rows(), e.Bytes())
	}
	// Executing over the same layout goes through ExecuteLayout.
	tw := knives.TableWorkload{Table: tab, Queries: []knives.TableQuery{{ID: "q", Weight: 1, Attrs: knives.Attrs(0)}}}
	rep, err := knives.ExecuteLayout(tw, knives.ColumnLayout(tab), "Column", knives.ReplayConfig{Seed: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	stats := rep.Queries[0].Stats
	if stats.Tuples != tab.Rows || stats.BytesRead <= 0 || !rep.Exact() {
		t.Errorf("scan stats: %+v (exact %v)", stats, rep.Exact())
	}
	if math.IsNaN(stats.SimTime) || stats.SimTime <= 0 {
		t.Errorf("sim time: %v", stats.SimTime)
	}
}

// A loaded store refuses a second Load, without writing a page: appending a
// second load's pages behind the first's would leave the cursors reading
// the first load's rows as the second's. A repartitioned store holds pages
// too, so it refuses a Load as well.
func TestPublicEngineRefusesSecondLoad(t *testing.T) {
	tab, err := knives.NewTable("t", 5000, []knives.Column{
		{Name: "a", Kind: knives.KindInt, Size: 4},
		{Name: "b", Kind: knives.KindVarchar, Size: 32},
	})
	if err != nil {
		t.Fatal(err)
	}
	e, err := knives.NewEngine(knives.ColumnLayout(tab), knives.DefaultDisk())
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.Load(knives.NewGenerator(1), 5000); err != nil {
		t.Fatal(err)
	}
	rows, bytes := e.Rows(), e.Bytes()
	if err := e.Load(knives.NewGenerator(2), 3000); err == nil {
		t.Error("a second Load on a loaded store succeeded")
	}
	if e.Rows() != rows || e.Bytes() != bytes {
		t.Errorf("refused Load changed the store: %d rows, %d bytes; want %d, %d", e.Rows(), e.Bytes(), rows, bytes)
	}
	if _, err := e.Repartition(knives.RowLayout(tab), 0); err != nil {
		t.Fatal(err)
	}
	if err := e.Load(knives.NewGenerator(2), 3000); err == nil {
		t.Error("a Load after a Repartition succeeded")
	}
	if e.Rows() != rows {
		t.Errorf("refused Load changed the row count to %d, want %d", e.Rows(), rows)
	}
}

// ExecuteAlgorithm resolves a name the way the CLI's -algorithm does (Row
// and Column, any case, name the baselines) and executes the layout it
// finds, exactly.
func TestExecuteAlgorithm(t *testing.T) {
	bench := knives.TPCH(0.01)
	tw := bench.Workload.ForTable(bench.Table("partsupp"))
	cfg := knives.ReplayConfig{MaxRows: 2_000}
	for _, c := range []struct {
		name, want string
		parts      int // 0: whatever the search finds
	}{{"row", "Row", 1}, {"COLUMN", "Column", 5}, {"HillClimb", "HillClimb", 0}, {"Trojan", "Trojan", 0}} {
		rep, err := knives.ExecuteAlgorithm(tw, c.name, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Algorithm != c.want || !rep.Exact() || (c.parts > 0 && rep.Layout.NumParts() != c.parts) {
			t.Errorf("%s: executed %s in %d parts, exact %v; want %s", c.name, rep.Algorithm, rep.Layout.NumParts(), rep.Exact(), c.want)
		}
	}
	if _, err := knives.ExecuteAlgorithm(tw, "nope", cfg, nil); err == nil {
		t.Error("ExecuteAlgorithm accepted an unknown algorithm")
	}
	if _, err := knives.ExecuteAlgorithm(tw, "Row", knives.ReplayConfig{Model: "nope"}, nil); err == nil {
		t.Error("ExecuteAlgorithm accepted an unknown model")
	}
}

func TestPublicMigrate(t *testing.T) {
	tab, err := knives.NewTable("t", 3000, []knives.Column{
		{Name: "a", Kind: knives.KindInt, Size: 4},
		{Name: "b", Kind: knives.KindVarchar, Size: 32},
		{Name: "c", Kind: knives.KindDecimal, Size: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	tw := knives.TableWorkload{Table: tab, Queries: []knives.TableQuery{
		{ID: "q1", Weight: 5, Attrs: knives.Attrs(0)},
		{ID: "q2", Weight: 1, Attrs: knives.Attrs(1, 2)},
	}}
	m := knives.NewHDDModel(knives.DefaultDisk())
	from := knives.RowLayout(tab)
	to := knives.ColumnLayout(tab)

	breakdown, err := knives.MigrationCost(m, tab, from, to)
	if err != nil {
		t.Fatal(err)
	}
	if breakdown.Seconds <= 0 || breakdown.BytesRead <= 0 {
		t.Errorf("migration breakdown: %+v", breakdown)
	}
	plan, err := knives.MigratePlan(tw, from, to, m, 0)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Window != knives.MigrationDefaultWindow {
		t.Errorf("plan window = %d, want default %d", plan.Window, knives.MigrationDefaultWindow)
	}
	rep, err := knives.MigrateExecute(tw, plan, knives.MigrationConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Exact() {
		t.Error("façade migration not exact")
	}
	// The engine alias carries Repartition too: a loaded store can be
	// re-laid-out in place through the public surface.
	e, err := knives.NewEngine(from, knives.DefaultDisk())
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.Load(knives.NewGenerator(1), tab.Rows); err != nil {
		t.Fatal(err)
	}
	stats, err := e.Repartition(to, 0)
	if err != nil {
		t.Fatal(err)
	}
	if stats.BytesRead <= 0 || !e.Layout().Equal(to) {
		t.Errorf("public repartition: %+v, layout %s", stats, e.Layout())
	}
	// Drifted workloads are derivable through the façade as well.
	drifted := knives.DriftWorkload(tw, 0.5, 7)
	if len(drifted.Queries) != len(tw.Queries) {
		t.Errorf("drift changed query count: %d", len(drifted.Queries))
	}
}
