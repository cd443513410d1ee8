package experiments

import (
	"fmt"

	"knives/internal/algorithms"
	"knives/internal/cost"
	"knives/internal/migrate"
	"knives/internal/workgen"
)

// Drift/migration scenario parameters: the Lineitem workload drifts by
// half (the paper's Section 6.3 "up to 50% change"), modeling a TPC-H
// stream shifting toward an SSB-style mix, and each algorithm's layout for
// the original mix is migrated to its layout for the drifted one.
const (
	migrateDriftFraction = 0.5
	migrateDriftSeed     = 2013
	migrateWindow        = 10_000_000
	migrateSampleRows    = 20_000
)

// ExtMigrate opens the scenario class the static comparison cannot
// express: the workload SHIFTS, and the question is no longer "which
// layout" but "is re-laying-out a loaded store worth its I/O". For every
// algorithm, the layout it advises for the original Lineitem mix is
// migrated to the layout it advises after the drift; the migration engine
// prices the transition (read every moved partition, write every created
// one), computes the break-even horizon over the drifted mix, executes the
// repartition on a sampled store, and verifies — so the table pins, per
// algorithm, both the ECONOMICS (break-even points differ wildly: a knife
// whose layout barely moves amortizes in a handful of queries, one that
// reshuffles everything may never pay off) and the MECHANICS
// (measured == predicted migration cost, the migrated store's answers ==
// the data generator's, both at zero tolerance).
//
// All numbers are simulated (virtual-disk) seconds over deterministic
// data, so the report is byte-stable and golden-diffed without masking.
func ExtMigrate(s *Suite) (*Report, error) {
	// The paper's six heuristics. BruteForce sits this one out: the
	// drifted mix fragments Lineitem into 15 atoms, past its Bell-number
	// cap (Bell(15) ≈ 1.4e9 candidates), so it cannot even produce the
	// target layout.
	names := evaluatedAlgorithms[:len(evaluatedAlgorithms)-1]
	if err := s.Prewarm(names...); err != nil {
		return nil, err
	}
	r := &Report{
		ID:     "ext-migrate",
		Title:  "Online migration after 50% workload drift (Lineitem): break-even and verified cost",
		Header: []string{"algorithm", "migration (s)", "gain/query (s)", "break-even", "verdict", "cost==model", "migrated==generator"},
	}
	m := cost.NewHDD(s.Disk)
	li := s.Bench.Table("lineitem")
	tw := s.Bench.Workload.ForTable(li)
	drifted := workgen.Drift(tw, migrateDriftFraction, migrateDriftSeed)
	liIndex := -1
	for i, t := range s.Bench.TableWorkloads() {
		if t.Table == li {
			liIndex = i
		}
	}
	if liIndex < 0 {
		return nil, fmt.Errorf("experiments: benchmark has no lineitem workload")
	}

	allExact := true
	for _, name := range names {
		rs, err := s.results(name)
		if err != nil {
			return nil, err
		}
		from := rs[liIndex].Partitioning
		to, _, err := algorithms.Layout(drifted, name, m)
		if err != nil {
			return nil, err
		}
		plan, err := migrate.New(drifted, from, to, m, migrateWindow)
		if err != nil {
			return nil, err
		}
		plan.FromAlgorithm, plan.ToAlgorithm = name, name

		verdict := "migrate"
		breakEven := fmt.Sprintf("%d", plan.BreakEven)
		if !plan.Viable {
			breakEven = "-"
			switch {
			case plan.From.Equal(plan.To):
				verdict = "no-op"
			case !(plan.Gain > 0):
				verdict = "never"
			default:
				verdict = ">window"
			}
		}
		rep, err := migrate.Execute(drifted, plan, migrate.Config{
			Disk: s.Disk, MaxRows: migrateSampleRows, Seed: 1,
		})
		if err != nil {
			return nil, err
		}
		allExact = allExact && rep.Exact()
		r.AddRow(name, fmtSeconds(plan.Migration.Seconds), fmt.Sprintf("%.3e", plan.Gain),
			breakEven, verdict,
			fmt.Sprintf("%v", rep.CostExact()), fmt.Sprintf("%v", rep.VerifyExact()))
	}
	r.AddNote("workload drift: %.0f%% of Lineitem queries perturbed (seed %d); window %d queries",
		migrateDriftFraction*100, migrateDriftSeed, int64(migrateWindow))
	r.AddNote("migration cost priced at full scale; executed and verified on %d-row samples (seed 1)", int64(migrateSampleRows))
	r.AddNote("measured repartition == migration cost model AND migrated == generator for every algorithm: %v", allExact)
	r.AddNote("times are simulated (virtual-disk) seconds; deterministic, no wall clock")
	r.AddNote("BruteForce excluded: the drifted mix has 15 atomic fragments, past its Bell-number cap")
	return r, nil
}
