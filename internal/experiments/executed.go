package experiments

import (
	"fmt"

	"knives/internal/algo"
	"knives/internal/algorithms"
	"knives/internal/attrset"
	"knives/internal/partition"
	"knives/internal/replay"
	"knives/internal/schema"
	"knives/internal/storage"
)

// executedSampleRows caps the materialized rows per table for the executed
// columns of fig4/fig5/tab3. The metrics behind those figures are either
// scale-invariant (reconstruction joins) or fractions of like-scaled sums
// (unnecessary read), and executed == predicted holds at any row count, so
// a small sample keeps the quality figures fast.
const executedSampleRows = 5_000

// extOperatorsSampleRows is ext-operators' larger per-table sample; the
// experiment replays only Lineitem, so it can afford more rows.
const extOperatorsSampleRows = 20_000

// sampleConfig is the replay config every executed experiment shares: the
// suite's disk, a sampled row count, and the fixed data seed that keeps the
// reports byte-stable.
func (s *Suite) sampleConfig(rows int64) replay.Config {
	return replay.Config{Disk: s.Disk, MaxRows: rows, Seed: 1}
}

// executedSet is one layout family's operator replays next to the layouts
// they executed, cached per suite so fig4 and fig5 share a single set of
// pipeline executions.
type executedSet struct {
	reps    []*replay.OperatorReplay
	layouts []partition.Partitioning
}

// executedReplays materializes the named layout family's advised layouts
// (algorithm names search at full scale through the suite's layout cache;
// "Row"/"Column" are the fixed families) and replays every table's workload
// through σ/π/⋈ operator pipelines at a sampled row count. Replays are
// returned in benchmark table order, next to the layouts they executed.
func (s *Suite) executedReplays(name string) ([]*replay.OperatorReplay, []partition.Partitioning, error) {
	set, _, err := s.executed.Do(name, func() (executedSet, error) {
		tws := s.Bench.TableWorkloads()
		layouts, _, err := s.familyLayouts(name)
		if err != nil {
			return executedSet{}, err
		}
		reps := make([]*replay.OperatorReplay, len(tws))
		err = algo.FanOut(len(tws), func(i int) (err error) {
			reps[i], err = replay.Operators(tws[i], layouts[i], name, s.sampleConfig(executedSampleRows), nil)
			return err
		})
		if err != nil {
			return executedSet{}, err
		}
		return executedSet{reps: reps, layouts: layouts}, nil
	})
	return set.reps, set.layouts, err
}

// repsExact reports whether every replay measured exactly what the cost
// model predicted.
func repsExact(reps []*replay.OperatorReplay) bool {
	for _, rep := range reps {
		if !rep.Exact() {
			return false
		}
	}
	return true
}

// measuredWidths indexes a query's measured per-leaf row sizes by the
// partition attribute set (partitions are disjoint, so the set is a key).
func measuredWidths(stats []storage.PartScanStats) map[attrset.Set]int {
	w := make(map[attrset.Set]int, len(stats))
	for _, p := range stats {
		w[p.Attrs] = p.RowSize
	}
	return w
}

// executedUnnecessaryRead recomputes metrics.BenchmarkUnnecessaryRead from
// MEASURED quantities: every read partition's row size comes from the
// pipelines' per-leaf scan stats and every row count from what the store
// materialized and the root emitted, not from the schema. The accumulation
// replicates the metric's expressions and iteration order (the raw layout
// part order), so when execution reads exactly what the metric assumes, the
// two values agree bit for bit.
func executedUnnecessaryRead(tws []schema.TableWorkload, layouts []partition.Partitioning, reps []*replay.OperatorReplay) float64 {
	var read, needed float64
	for i, tw := range tws {
		rep := reps[i]
		for qi, q := range tw.Queries {
			measured := rep.Queries[qi].Stats
			width := measuredWidths(measured.Parts)
			for _, p := range layouts[i].Parts {
				if w, ok := width[p]; ok {
					read += q.Weight * float64(w) * float64(rep.RowsReplayed)
				}
			}
			needed += q.Weight * float64(tw.Table.SetSize(q.Attrs)) * float64(measured.Tuples)
		}
	}
	if read == 0 {
		return 0
	}
	return (read - needed) / read
}

// executedUnnecessaryReadTable is the single-table variant, replicating
// metrics.UnnecessaryRead (which scales by the row count once, at the end).
func executedUnnecessaryReadTable(tw schema.TableWorkload, layout partition.Partitioning, rep *replay.OperatorReplay) float64 {
	var read, needed float64
	for qi, q := range tw.Queries {
		measured := rep.Queries[qi].Stats
		width := measuredWidths(measured.Parts)
		for _, p := range layout.Parts {
			if w, ok := width[p]; ok {
				read += q.Weight * float64(w)
			}
		}
		needed += q.Weight * float64(tw.Table.SetSize(q.Attrs))
	}
	read *= float64(rep.RowsReplayed)
	needed *= float64(rep.RowsReplayed)
	if read == 0 {
		return 0
	}
	return (read - needed) / read
}

// executedReconJoins recomputes metrics.BenchmarkReconstructionJoins from
// the replays: the partitions a query touched are the leaves its pipeline
// actually scanned. The metric carries no row-count term, so the executed
// value must equal the full-scale estimate exactly, at any sample size.
func executedReconJoins(tws []schema.TableWorkload, reps []*replay.OperatorReplay) float64 {
	var joins, weight float64
	for i, tw := range tws {
		for qi, q := range tw.Queries {
			touched := len(reps[i].Queries[qi].Stats.Parts)
			if touched > 0 {
				joins += q.Weight * float64(touched-1)
			}
			weight += q.Weight
		}
	}
	if weight == 0 {
		return 0
	}
	return joins / weight
}

// sampledTwins builds same-columns, capped-rows twins of the benchmark
// tables, the tables the replayed metrics and costs are verified against.
func sampledTwins(tws []schema.TableWorkload, rows int64) ([]schema.TableWorkload, error) {
	out := make([]schema.TableWorkload, len(tws))
	for i, tw := range tws {
		st := tw.Table
		if st.Rows > rows {
			var err error
			st, err = schema.NewTable(tw.Table.Name, rows, tw.Table.Columns)
			if err != nil {
				return nil, err
			}
		}
		out[i] = schema.TableWorkload{Table: st, Queries: tw.Queries}
	}
	return out, nil
}

// leafTermsDecompose checks the operator layer's accounting claim on real
// plans: the per-leaf SimTime terms of every pipeline sum EXACTLY to the
// query's measured seconds — the cost model's per-query price, decomposed
// per operator with no residue.
func leafTermsDecompose(rep *replay.OperatorReplay) bool {
	for qi := range rep.Queries {
		var sum float64
		for _, op := range rep.Ops[qi] {
			if op.Op == "scan" {
				sum += op.SimTime
			}
		}
		if sum != rep.Queries[qi].MeasuredSeconds {
			return false
		}
	}
	return true
}

// ExtOperators pins the operator pipeline against the cost model across the
// device spectrum: Lineitem's workload is executed as σ/π/⋈ plans over
// layouts advised per device, and every measured total must equal the
// prediction at zero tolerance — on HDD, SSD, and main memory. A σ sweep on
// l_shipdate shows the common-granularity contract from the execution side:
// selectivity changes the rows the root emits, never the physical I/O, so
// selective plans stay exactly predictable too.
func ExtOperators(s *Suite) (*Report, error) {
	r := &Report{
		ID:     "ext-operators",
		Title:  "Operator pipelines: executed σ/π/⋈ I/O vs cost-model predictions across devices (Lineitem)",
		Header: []string{"device", "layout", "σ", "measured (s)", "predicted (s)", "max |delta|", "exact", "seeks", "bytes", "recon joins", "rows out"},
	}
	li := s.Bench.Table("lineitem")
	tw := s.Bench.Workload.ForTable(li)
	cfg := func(model string) replay.Config {
		return replay.Config{Model: model, MaxRows: extOperatorsSampleRows, Seed: 1}
	}
	allExact, decomposed := true, true
	var planNote string
	addRep := func(device string, rep *replay.OperatorReplay) {
		sigma := rep.Selection
		if sigma == "" {
			sigma = "-"
		}
		var rows int64
		if len(rep.Queries) > 0 {
			rows = rep.Queries[0].Stats.Tuples
		}
		r.AddRow(device, rep.Algorithm, sigma,
			fmtSeconds(rep.MeasuredTotal), fmtSeconds(rep.PredictedTotal),
			fmt.Sprintf("%g", rep.MaxAbsDelta()), fmt.Sprintf("%v", rep.Exact()),
			fmt.Sprintf("%d", rep.Seeks), fmt.Sprintf("%d", rep.BytesRead),
			fmt.Sprintf("%d", rep.ReconJoins), fmt.Sprintf("%d", rows))
		allExact = allExact && rep.Exact()
		decomposed = decomposed && leafTermsDecompose(rep)
	}
	for _, device := range []string{"hdd", "ssd", "mm"} {
		for _, layout := range []string{"HillClimb", "Column", "Row"} {
			rep, err := executeAlgorithm(tw, layout, cfg(device), nil)
			if err != nil {
				return nil, err
			}
			addRep(device, rep)
			if device == "hdd" && layout == "HillClimb" && len(rep.Plans) > 0 {
				planNote = fmt.Sprintf("plan %s (hdd/HillClimb): %s", tw.Queries[0].ID, rep.Plans[0])
			}
		}
	}
	// The σ sweep: same device, same layout family, two date bounds.
	selAttr := li.AttrIndex("l_shipdate")
	var selReps []*replay.OperatorReplay
	for _, frac := range []float64{0.25, 0.75} {
		sel := &replay.Selection{Attr: selAttr, Bound: uint32(frac * storage.DateDomain)}
		rep, err := executeAlgorithm(tw, "HillClimb", cfg("hdd"), sel)
		if err != nil {
			return nil, err
		}
		addRep("hdd", rep)
		selReps = append(selReps, rep)
	}
	ioInvariant := selReps[0].BytesRead == selReps[1].BytesRead &&
		selReps[0].Seeks == selReps[1].Seeks
	r.AddNote("measured == predicted at zero tolerance for every device, layout, and selectivity: %v", allExact)
	r.AddNote("per-leaf SimTime terms sum to each query's measured seconds bit for bit: %v", decomposed)
	r.AddNote("σ changes rows out, never I/O (common granularity): bytes and seeks identical across bounds: %v", ioInvariant)
	if planNote != "" {
		r.AddNote("%s", planNote)
	}
	r.AddNote("times are simulated (virtual-device) seconds over %d-row samples; deterministic, no wall clock", int64(extOperatorsSampleRows))
	return r, nil
}

// executeAlgorithm executes tw through operator pipelines over the layout
// the named algorithm (or baseline family) finds at full scale.
func executeAlgorithm(tw schema.TableWorkload, name string, cfg replay.Config, sel *replay.Selection) (*replay.OperatorReplay, error) {
	_, m, err := cfg.Normalized()
	if err != nil {
		return nil, err
	}
	layout, resolved, err := algorithms.Layout(tw, name, m)
	if err != nil {
		return nil, err
	}
	return replay.Operators(tw, layout, resolved, cfg, sel)
}
