package migrate

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"knives/internal/algo"
	"knives/internal/cost"
	"knives/internal/partition"
	"knives/internal/replay"
	"knives/internal/schema"
	"knives/internal/storage"
)

// Config parameterizes a migration execution. It is the replay
// configuration verbatim — model, disk, row cap, worker pool, seed,
// backend — because the verification leg IS a replay: the migrated store
// and a fresh materialization of the target layout are replayed under the
// same config and must agree on every number.
type Config = replay.Config

// Report is the outcome of executing one planned migration on a (possibly
// sampled) store: the measured repartition next to the migration cost
// model's prediction for the executed row count, and the two verification
// replays (the migrated store vs a fresh materialization of the target
// layout), all compared at zero tolerance.
type Report struct {
	Plan *Plan
	// RowsFull is the logical table's row count; RowsExecuted is how many
	// rows the executed store held (the replay sampling rule).
	RowsFull, RowsExecuted int64
	Backend                string
	// Predicted prices the transition at the EXECUTED row count (the plan
	// prices full scale); Measured is what the engine's Repartition did.
	Predicted cost.Migration
	Measured  storage.RepartitionStats
	// MeasuredSeconds prices the measured repartition in the model's unit;
	// PredictedSeconds is Predicted.Seconds.
	MeasuredSeconds, PredictedSeconds float64
	// Migrated replays the workload over the migrated store; Fresh replays
	// it over a from-scratch materialization of the target layout.
	Migrated, Fresh *replay.TableReplay
	// Elapsed is the wall-clock time of the whole execute-and-verify run.
	Elapsed time.Duration
}

// CostExact reports whether the measured repartition equals the migration
// cost model's prediction bit for bit: seconds always, plus the pricing
// discipline's mechanical dimension (bytes and seeks on block devices,
// cache lines on cache devices).
func (r *Report) CostExact() bool {
	if r.MeasuredSeconds != r.PredictedSeconds {
		return false
	}
	if r.Predicted.Pricing == cost.PricingCache {
		return r.Measured.LinesRead == r.Predicted.LinesRead &&
			r.Measured.LinesWritten == r.Predicted.LinesWritten
	}
	return r.Measured.BytesRead == r.Predicted.BytesRead &&
		r.Measured.BytesWritten == r.Predicted.BytesWritten &&
		r.Measured.SeeksRead == r.Predicted.SeeksRead &&
		r.Measured.SeeksWrite == r.Predicted.SeeksWrite
}

// VerifyExact reports whether the migrated store is indistinguishable from
// a fresh materialization of the target layout: every query's checksum and
// every measured quantity agree, and both replays match the cost model
// exactly.
func (r *Report) VerifyExact() bool {
	a, b := r.Migrated, r.Fresh
	if a == nil || b == nil || len(a.Queries) != len(b.Queries) {
		return false
	}
	if !a.Exact() || !b.Exact() {
		return false
	}
	for i := range a.Queries {
		qa, qb := a.Queries[i], b.Queries[i]
		if qa.Stats.Checksum != qb.Stats.Checksum ||
			qa.Stats.Seeks != qb.Stats.Seeks ||
			qa.Stats.BytesRead != qb.Stats.BytesRead ||
			qa.Stats.CacheLines != qb.Stats.CacheLines ||
			qa.Stats.ReconJoins != qb.Stats.ReconJoins ||
			qa.Stats.Tuples != qb.Stats.Tuples ||
			qa.MeasuredSeconds != qb.MeasuredSeconds ||
			qa.PredictedSeconds != qb.PredictedSeconds {
			return false
		}
	}
	return a.MeasuredTotal == b.MeasuredTotal && a.PredictedTotal == b.PredictedTotal
}

// Exact is the headline verdict: measured migration cost equals predicted
// AND the migrated store verifies against a fresh materialization.
func (r *Report) Exact() bool { return r.CostExact() && r.VerifyExact() }

// String renders the report for the CLI.
func (r *Report) String() string {
	var b strings.Builder
	b.WriteString(r.Plan.String())
	fmt.Fprintf(&b, "  executed on %d/%d rows (%s backend)\n", r.RowsExecuted, r.RowsFull, r.Backend)
	fmt.Fprintf(&b, "  repartition: read %d B / %d seeks, wrote %d B / %d seeks, kept %d parts\n",
		r.Measured.BytesRead, r.Measured.SeeksRead,
		r.Measured.BytesWritten, r.Measured.SeeksWrite, r.Measured.PartsKept)
	fmt.Fprintf(&b, "  migration cost measured=%.9e predicted=%.9e exact=%v\n",
		r.MeasuredSeconds, r.PredictedSeconds, r.CostExact())
	fmt.Fprintf(&b, "  verification: migrated==fresh exact=%v (replayed %d queries)\n",
		r.VerifyExact(), len(r.Migrated.Queries))
	return b.String()
}

// Execute performs a planned migration on a real store and verifies it:
// the FROM layout is materialized through the storage engine (sampled at
// cfg.MaxRows, the replay rule), transformed into the TO layout with the
// partition-parallel Repartition, the measured transition compared against
// the migration cost model at the executed scale, and the migrated store
// replayed against a fresh materialization of the target layout — all at
// zero tolerance. Non-viable plans execute too: verification is how a
// refusal is proven honest, it just must never touch a production store.
func Execute(tw schema.TableWorkload, p *Plan, cfg Config) (*Report, error) {
	if p == nil {
		return nil, fmt.Errorf("migrate: nil plan")
	}
	if tw.Table == nil || p.Table != tw.Table {
		return nil, fmt.Errorf("migrate: plan is for table %v, workload is over %v", p.Table, tw.Table)
	}
	cfg, model, err := cfg.Normalized()
	if err != nil {
		return nil, fmt.Errorf("migrate: %w", err)
	}
	if model.Name() != p.Model {
		return nil, fmt.Errorf("migrate: plan priced under %s, execution config says %s", p.Model, model.Name())
	}
	start := time.Now()

	// File-backed runs get two subdirectories: the live store (which holds
	// both epochs' partition files until Close) and the fresh verification
	// materialization, so the two engines can never truncate each other's
	// open files.
	storeCfg, freshCfg := cfg, cfg
	if cfg.Backend == replay.BackendFile {
		storeCfg.Dir = filepath.Join(cfg.Dir, "store")
		freshCfg.Dir = filepath.Join(cfg.Dir, "fresh")
		for _, d := range []string{storeCfg.Dir, freshCfg.Dir} {
			if err := os.MkdirAll(d, 0o755); err != nil {
				return nil, fmt.Errorf("migrate: %w", err)
			}
		}
	}

	// Materialize (the replay's own sampling rule, so the verification
	// replays see the same store scale) + repartition under one process-wide
	// search slot (the same heavy-job class as a replay); released before
	// the verification replays take their own slots, so stacked acquisition
	// cannot deadlock.
	algo.AcquireSearchSlot()
	e, err := replay.Materialize(tw, p.From, storeCfg)
	if err != nil {
		algo.ReleaseSearchSlot()
		return nil, fmt.Errorf("migrate: %w", err)
	}
	defer e.Close()
	sample, fromS := e.Table(), e.Layout()
	toS, err := partition.New(sample, p.To.Parts)
	var measured storage.RepartitionStats
	if err == nil {
		measured, err = e.Repartition(toS, cfg.Workers)
	}
	algo.ReleaseSearchSlot()
	if err != nil {
		return nil, fmt.Errorf("migrate: %w", err)
	}
	sampledTW := schema.TableWorkload{Table: sample, Queries: normalizeWeights(tw.Queries)}

	predicted, err := cost.MigrationCost(model, sample, fromS.Parts, toS.Parts)
	if err != nil {
		return nil, fmt.Errorf("migrate: %w", err)
	}
	rep := &Report{
		Plan:             p,
		RowsFull:         tw.Table.Rows,
		RowsExecuted:     sample.Rows,
		Backend:          cfg.Backend,
		Predicted:        predicted,
		Measured:         measured,
		PredictedSeconds: predicted.Seconds,
		MeasuredSeconds:  measuredSeconds(model, measured),
	}

	// Verification leg 1: replay the workload over the migrated store.
	label := fmt.Sprintf("migrated(%s)", p.ToAlgorithm)
	rep.Migrated, err = replay.OnEngine(sampledTW, e, label, cfg)
	if err != nil {
		return nil, fmt.Errorf("migrate: verify migrated store: %w", err)
	}
	// Verification leg 2: a fresh materialization of the target layout
	// from the same generator seed.
	rep.Fresh, err = replay.Layout(sampledTW, toS, p.ToAlgorithm, freshCfg)
	if err != nil {
		return nil, fmt.Errorf("migrate: verify fresh materialization: %w", err)
	}
	rep.Elapsed = time.Since(start)
	return rep, nil
}

// measuredSeconds prices a measured repartition in the model's unit,
// summing per-partition terms in the stats' move order — the same order
// the migration cost model sums its own. For HDD this is the virtual
// disk's simulated time, already accumulated in that order; for MM it is
// each moved partition's cache lines times the miss latency.
func measuredSeconds(m cost.Model, s storage.RepartitionStats) float64 {
	dm, ok := m.(*cost.DeviceModel)
	if !ok {
		return 0
	}
	dev := dm.Device()
	if dev.Pricing == cost.PricingCache {
		var total float64
		for _, p := range s.Reads {
			total += float64(p.CacheLines) * dev.MissLatency
		}
		for _, p := range s.Writes {
			total += float64(p.CacheLines) * dev.MissLatency
		}
		return total
	}
	return s.SimTime
}
