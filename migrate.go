package knives

import (
	"knives/internal/cost"
	"knives/internal/migrate"
	"knives/internal/storage"
	"knives/internal/workgen"
)

// Migration types: the online layout migration engine. A migration prices
// a layout transition with the migration cost model (read every moved
// partition, write every created one), plans break-even against a recent
// query mix, executes viable transitions on a live storage engine via the
// epoch-swapped Repartition, and verifies the migrated store with the
// replay harness at zero tolerance.
type (
	// MigrationPlan is a priced, break-even-analyzed layout transition.
	MigrationPlan = migrate.Plan
	// MigrationReport is the outcome of executing and verifying a plan.
	MigrationReport = migrate.Report
	// MigrationConfig parameterizes an execution (it is the replay config:
	// model, disk, row cap, workers, seed, backend); the seed also derives
	// the answers the migrated store is checked against.
	MigrationConfig = migrate.Config
	// MigrationBreakdown is the migration cost model's per-partition
	// pricing of a transition.
	MigrationBreakdown = cost.Migration
	// RepartitionStats is what the storage engine measured executing one
	// repartition.
	RepartitionStats = storage.RepartitionStats
)

// MigrationCost prices the transition from -> to over the table under the
// given model: every moved partition read, every created partition
// written, untouched column groups free. The breakdown lists each moved
// partition's term in the exact summation order, which the storage
// engine's Repartition reproduces bit for bit.
func MigrationCost(m CostModel, t *Table, from, to Partitioning) (MigrationBreakdown, error) {
	return cost.MigrationCost(m, t, from.Parts, to.Parts)
}

// MigratePlan prices the transition and decides break-even against the
// recent query mix: the number of queries after which migrate+run(to)
// beats stay(from). Plans that never break even — or not within window
// queries (0 = default window) — come back with Viable=false and a Reason.
func MigratePlan(tw TableWorkload, from, to Partitioning, m CostModel, window int64) (*MigrationPlan, error) {
	return migrate.New(tw, from, to, m, window)
}

// MigrateExecute performs a planned migration on a sampled store and
// verifies it: the from-layout is materialized, repartitioned into the
// to-layout without a reload, the measured transition compared against the
// migration cost model, and the migrated store replayed, its layout checked
// against the target and its answers against the data generator's — all at
// zero tolerance. The migrated store is the only one materialized.
func MigrateExecute(tw TableWorkload, p *MigrationPlan, cfg MigrationConfig) (*MigrationReport, error) {
	return migrate.Execute(tw, p, cfg)
}

// MigrationDefaultWindow is the default break-even horizon bound.
const MigrationDefaultWindow = migrate.DefaultWindow

// DriftWorkload returns a copy of the workload with a fraction of its
// queries replaced by perturbed variants — the paper's Section 6.3
// workload-change model, exported so migration scenarios can generate the
// "after" mix deterministically.
func DriftWorkload(tw TableWorkload, fraction float64, seed int64) TableWorkload {
	return workgen.Drift(tw, fraction, seed)
}
