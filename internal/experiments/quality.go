package experiments

import (
	"fmt"

	"knives/internal/algorithms"
	"knives/internal/cost"
	"knives/internal/metrics"
	"knives/internal/partition"
	"knives/internal/replay"
	"knives/internal/schema"
)

// Fig3 reproduces Figure 3: the estimated workload runtime of the layouts
// every algorithm produces, with Row and Column as baselines.
func Fig3(s *Suite) (*Report, error) {
	if err := s.Prewarm(evaluatedAlgorithms...); err != nil {
		return nil, err
	}
	r := &Report{
		ID:     "fig3",
		Title:  "Estimated workload runtime for different algorithms (TPC-H SF10)",
		Header: []string{"layout", "estd. runtime (s)"},
	}
	for _, name := range evaluatedAlgorithms {
		rs, err := s.results(name)
		if err != nil {
			return nil, err
		}
		r.AddRow(name, fmtSeconds(totalCost(rs)))
	}
	m := s.model()
	col := layoutCost(s.Bench, m, partition.Column)
	row := layoutCost(s.Bench, m, partition.Row)
	r.AddRow("Column", fmtSeconds(col))
	r.AddRow("Row", fmtSeconds(row))
	hc, err := s.results("HillClimb")
	if err != nil {
		return nil, err
	}
	r.AddNote("HillClimb improvement over Row: %s", fmtPercent(metrics.Improvement(row, totalCost(hc))))
	r.AddNote("HillClimb improvement over Column: %s", fmtPercent(metrics.Improvement(col, totalCost(hc))))
	r.AddNote("paper: ~80%% improvement over Row, <5%% over Column")
	return r, nil
}

// Fig4 reproduces Figure 4: the fraction of data read that is unnecessary.
// Next to the paper's estimated fraction, an EXECUTED column recomputes the
// metric from σ/π/⋈ pipelines run over sampled materializations of the same
// layouts — every read byte measured at the page level, and verified
// against the metric recomputed over the sampled twins at zero tolerance.
func Fig4(s *Suite) (*Report, error) {
	if err := s.Prewarm(evaluatedAlgorithms...); err != nil {
		return nil, err
	}
	r := &Report{
		ID:     "fig4",
		Title:  "Fraction of unnecessary data read (TPC-H SF10)",
		Header: []string{"layout", "unnecessary read", "executed (sampled)"},
	}
	tws := s.Bench.TableWorkloads()
	sampled, err := sampledTwins(tws, executedSampleRows)
	if err != nil {
		return nil, err
	}
	verified := true
	executedCell := func(name string) (string, error) {
		reps, layouts, err := s.executedReplays(name)
		if err != nil {
			return "", err
		}
		executed := executedUnnecessaryRead(tws, layouts, reps)
		parts := make([][]schema.Set, len(layouts))
		for i, l := range layouts {
			parts[i] = l.Parts
		}
		verified = verified &&
			executed == metrics.BenchmarkUnnecessaryRead(sampled, parts) &&
			repsExact(reps)
		return fmtPercent(executed), nil
	}
	for _, name := range evaluatedAlgorithms {
		rs, err := s.results(name)
		if err != nil {
			return nil, err
		}
		executed, err := executedCell(name)
		if err != nil {
			return nil, err
		}
		r.AddRow(name, fmtPercent(metrics.BenchmarkUnnecessaryRead(tws, partsOf(rs))), executed)
	}
	colLayouts := make([][]schema.Set, len(tws))
	rowLayouts := make([][]schema.Set, len(tws))
	for i, tw := range tws {
		colLayouts[i] = partition.Column(tw.Table).Parts
		rowLayouts[i] = partition.Row(tw.Table).Parts
	}
	colExecuted, err := executedCell("Column")
	if err != nil {
		return nil, err
	}
	rowExecuted, err := executedCell("Row")
	if err != nil {
		return nil, err
	}
	r.AddRow("Column", fmtPercent(metrics.BenchmarkUnnecessaryRead(tws, colLayouts)), colExecuted)
	r.AddRow("Row", fmtPercent(metrics.BenchmarkUnnecessaryRead(tws, rowLayouts)), rowExecuted)
	r.AddNote("paper: Row reads ~84%% unnecessary data; vertically partitioned layouts read ~0-25%%")
	r.AddNote("executed column: operator pipelines over %d-row samples; equals the metric over the sampled twins bit for bit, all replays exact: %v", int64(executedSampleRows), verified)
	return r, nil
}

// Fig5 reproduces Figure 5: the average number of tuple-reconstruction
// joins per tuple and query.
func Fig5(s *Suite) (*Report, error) {
	if err := s.Prewarm(evaluatedAlgorithms...); err != nil {
		return nil, err
	}
	r := &Report{
		ID:     "fig5",
		Title:  "Average tuple-reconstruction joins (TPC-H SF10)",
		Header: []string{"layout", "avg joins", "executed"},
	}
	tws := s.Bench.TableWorkloads()
	// The joins metric carries no row-count term, so the executed value
	// (recomputed from the leaves every pipeline actually merged) must equal
	// the full-scale estimate EXACTLY, at any sample size.
	verified := true
	executedCell := func(name string, estimated float64) (string, error) {
		reps, _, err := s.executedReplays(name)
		if err != nil {
			return "", err
		}
		executed := executedReconJoins(tws, reps)
		verified = verified && executed == estimated && repsExact(reps)
		return fmtFactor(executed), nil
	}
	var colJoins float64
	for _, name := range evaluatedAlgorithms {
		rs, err := s.results(name)
		if err != nil {
			return nil, err
		}
		estimated := metrics.BenchmarkReconstructionJoins(tws, partsOf(rs))
		executed, err := executedCell(name, estimated)
		if err != nil {
			return nil, err
		}
		r.AddRow(name, fmtFactor(estimated), executed)
	}
	colLayouts := make([][]schema.Set, len(tws))
	rowLayouts := make([][]schema.Set, len(tws))
	for i, tw := range tws {
		colLayouts[i] = partition.Column(tw.Table).Parts
		rowLayouts[i] = partition.Row(tw.Table).Parts
	}
	colJoins = metrics.BenchmarkReconstructionJoins(tws, colLayouts)
	colExecuted, err := executedCell("Column", colJoins)
	if err != nil {
		return nil, err
	}
	rowJoins := metrics.BenchmarkReconstructionJoins(tws, rowLayouts)
	rowExecuted, err := executedCell("Row", rowJoins)
	if err != nil {
		return nil, err
	}
	r.AddRow("Column", fmtFactor(colJoins), colExecuted)
	r.AddRow("Row", fmtFactor(rowJoins), rowExecuted)
	r.AddNote("executed column equals the full-scale estimate bit for bit (the metric is scale-free), all replays exact: %v", verified)
	hc, err := s.results("HillClimb")
	if err != nil {
		return nil, err
	}
	hcJoins := metrics.BenchmarkReconstructionJoins(tws, partsOf(hc))
	if colJoins > 0 {
		r.AddNote("HillClimb still performs %.0f%% of Column's joins (paper: at least 72%%)", hcJoins/colJoins*100)
	}
	return r, nil
}

// Fig6 reproduces Figure 6: how far each layout's cost is from perfect
// materialized views.
func Fig6(s *Suite) (*Report, error) {
	if err := s.Prewarm(evaluatedAlgorithms...); err != nil {
		return nil, err
	}
	r := &Report{
		ID:     "fig6",
		Title:  "Distance from perfect materialized views (TPC-H SF10)",
		Header: []string{"layout", "distance from PMV"},
	}
	m := s.model()
	pmv := pmvCost(s.Bench, m)
	for _, name := range evaluatedAlgorithms {
		rs, err := s.results(name)
		if err != nil {
			return nil, err
		}
		r.AddRow(name, fmtPercent(metrics.DistanceFromPMV(totalCost(rs), pmv)))
	}
	r.AddRow("Column", fmtPercent(metrics.DistanceFromPMV(layoutCost(s.Bench, m, partition.Column), pmv)))
	r.AddRow("Row", fmtPercent(metrics.DistanceFromPMV(layoutCost(s.Bench, m, partition.Row), pmv)))
	r.AddNote("paper: HillClimb/AutoPart within ~18%% of PMV; Navathe/O2P ~49-56%% off; Row ~517%% off")
	return r, nil
}

// Fig7 reproduces Figure 7: the estimated workload runtime improvement over
// Column when re-optimizing for the first k queries, for HillClimb and
// Navathe.
func Fig7(s *Suite) (*Report, error) {
	r := &Report{
		ID:     "fig7",
		Title:  "Improvement over Column when re-optimizing for the first k queries",
		Header: []string{"k", "HillClimb", "Navathe"},
	}
	m := s.model()
	for k := 1; k <= len(s.Bench.Workload.Queries); k++ {
		bench := &schema.Benchmark{Name: s.Bench.Name, Tables: s.Bench.Tables, Workload: s.Bench.Workload.Prefix(k)}
		col := layoutCost(bench, m, partition.Column)
		row := []string{fmt.Sprintf("%d", k)}
		for _, name := range []string{"HillClimb", "Navathe"} {
			a, err := algorithms.ByName(name)
			if err != nil {
				return nil, err
			}
			rs, err := runAll(a, bench, m)
			if err != nil {
				return nil, err
			}
			row = append(row, fmtPercent(metrics.Improvement(col, totalCost(rs))))
		}
		r.AddRow(row...)
	}
	r.AddNote("paper: HillClimb starts at ~24%% and settles at ~6.5%%; Navathe goes negative from k=4")
	return r, nil
}

// Tab3 reproduces Table 3: the fraction of unnecessary data read over the
// Lineitem table for the first k queries (k = 1..6), HillClimb vs Navathe.
// The executed columns rerun each prefix workload as operator pipelines
// over a sampled materialization of the advised layout and recompute the
// fraction from measured page reads, verified against the metric over the
// sampled twin at zero tolerance.
func Tab3(s *Suite) (*Report, error) {
	r := &Report{
		ID:     "tab3",
		Title:  "Unnecessary data reads over Lineitem for the first k queries",
		Header: []string{"k", "HillClimb", "Navathe", "HillClimb (executed)", "Navathe (executed)"},
	}
	m := s.model()
	li := s.Bench.Table("lineitem")
	verified := true
	for k := 1; k <= 6; k++ {
		tw := s.Bench.Workload.Prefix(k).ForTable(li)
		stw, err := sampledTwins([]schema.TableWorkload{tw}, executedSampleRows)
		if err != nil {
			return nil, err
		}
		row := []string{fmt.Sprintf("%d", k)}
		var executedCells []string
		for _, name := range []string{"HillClimb", "Navathe"} {
			a, err := algorithms.ByName(name)
			if err != nil {
				return nil, err
			}
			res, err := a.Partition(tw, m)
			if err != nil {
				return nil, err
			}
			row = append(row, fmtPercent(metrics.UnnecessaryRead(tw, res.Partitioning.Parts)))
			rep, err := replay.Operators(tw, res.Partitioning, name, s.sampleConfig(executedSampleRows), nil)
			if err != nil {
				return nil, err
			}
			executed := executedUnnecessaryReadTable(tw, res.Partitioning, rep)
			verified = verified &&
				executed == metrics.UnnecessaryRead(stw[0], res.Partitioning.Parts) &&
				rep.Exact()
			executedCells = append(executedCells, fmtPercent(executed))
		}
		r.AddRow(append(row, executedCells...)...)
	}
	r.AddNote("paper: HillClimb stays at 0%%; Navathe jumps above 30%% from k=4")
	r.AddNote("executed columns: operator pipelines over %d-row samples; equal the metric over the sampled twin bit for bit, all replays exact: %v", int64(executedSampleRows), verified)
	return r, nil
}

// Tab4 reproduces Table 4: the average number of tuple-reconstruction
// joins per row of Lineitem for the first k queries, HillClimb vs Column.
func Tab4(s *Suite) (*Report, error) {
	r := &Report{
		ID:     "tab4",
		Title:  "Average tuple-reconstruction joins per Lineitem row for the first k queries",
		Header: []string{"k", "HillClimb", "Column"},
	}
	m := s.model()
	li := s.Bench.Table("lineitem")
	for k := 1; k <= 6; k++ {
		tw := s.Bench.Workload.Prefix(k).ForTable(li)
		a, err := algorithms.ByName("HillClimb")
		if err != nil {
			return nil, err
		}
		res, err := a.Partition(tw, m)
		if err != nil {
			return nil, err
		}
		r.AddRow(fmt.Sprintf("%d", k),
			fmtFactor(metrics.ReconstructionJoins(tw, res.Partitioning.Parts)),
			fmtFactor(metrics.ReconstructionJoins(tw, partition.Column(li).Parts)))
	}
	r.AddNote("paper: HillClimb grows 0.00 → 2.00 while Column shrinks 6.00 → 3.40 as k grows")
	return r, nil
}

// Fig10 reproduces Figure 10 (Appendix A.1): the pay-off of every
// algorithm's optimization + layout-creation investment over Row (a) and
// over Column (b).
func Fig10(s *Suite) (*Report, error) {
	r := &Report{
		ID:     "fig10",
		Title:  "Pay-off of optimization + creation time over Row and Column",
		Header: []string{"algorithm", "pay-off over Row (% of workload)", "pay-off over Column (workload runs)"},
	}
	m := s.model()
	rowC := layoutCost(s.Bench, m, partition.Row)
	colC := layoutCost(s.Bench, m, partition.Column)
	creation := cost.BenchmarkCreationTime(s.Bench, s.Disk)
	for _, name := range evaluatedAlgorithms {
		// Time each algorithm in isolation, sharing Fig1's measurement (a
		// Prewarm'd fan-out would fold scheduler contention into the
		// pay-off). Timing runs first: it seeds the layout cache, so the
		// results call below never triggers a second search.
		opt, _, err := s.timedSeconds(name)
		if err != nil {
			return nil, err
		}
		rs, err := s.results(name)
		if err != nil {
			return nil, err
		}
		lc := totalCost(rs)
		overRow := metrics.Payoff(opt, creation, rowC, lc)
		overCol := metrics.Payoff(opt, creation, colC, lc)
		rowCell := fmtPercent(overRow)
		colCell := fmtFactor(overCol)
		if overRow < 0 {
			rowCell = "never"
		}
		if overCol < 0 {
			colCell = "never"
		}
		r.AddRow(name, rowCell, colCell)
	}
	r.AddNote("paper: all algorithms pay off over Row after ~25%% of one workload execution")
	r.AddNote("paper: over Column the earliest pay-off needs ~44 workload executions; Navathe/O2P never pay off")
	return r, nil
}
