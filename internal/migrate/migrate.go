package migrate

import (
	"fmt"
	"slices"
	"strings"

	"knives/internal/algo"
	"knives/internal/cost"
	"knives/internal/partition"
	"knives/internal/replay"
	"knives/internal/schema"
	"knives/internal/storage"
)

// Config parameterizes a migration execution. It is the replay
// configuration verbatim — model, disk, row cap, worker pool, seed,
// backend — because the verification IS a replay: the migrated store is
// replayed under it, and its Seed is the generator's the replay's answers
// are checked against. A file-backed store writes its partition files into
// Dir.
type Config = replay.Config

// Report is the outcome of executing one planned migration on a (possibly
// sampled) store: the measured repartition next to the migration cost
// model's prediction for the executed row count, and the replay of the
// migrated store next to the answers the data generator gives, all
// compared at zero tolerance.
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
	// Migrated replays the workload over the layout the migrated store
	// holds; Expected is each query's answer derived from the data
	// generator alone (replay.Expected), in the workload's query order.
	Migrated *replay.TableReplay
	Expected []replay.Answer
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

// VerifyExact reports whether the migrated store holds the target layout
// and the generator's data: its replay matches the cost model exactly, it
// holds the plan's TO layout at RowsExecuted rows, and every query's
// checksum and result rows (Stats.Tuples) equal the generator's. Checksums
// are layout-independent, so only the layout check sees a store that kept
// the wrong partitions.
func (r *Report) VerifyExact() bool {
	m := r.Migrated
	return m != nil && m.Exact() && m.RowsReplayed == r.RowsExecuted &&
		slices.Equal(m.Layout.Canonical().Parts, r.Plan.To.Canonical().Parts) &&
		slices.EqualFunc(m.Queries, r.Expected, func(q replay.QueryReplay, a replay.Answer) bool {
			return q.Stats.Checksum == a.Checksum && q.Stats.Tuples == a.Rows
		})
}

// Exact is the headline verdict: measured migration cost equals predicted
// AND the migrated store verifies against the generator.
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
	fmt.Fprintf(&b, "  verification: migrated==generator exact=%v (replayed %d queries)\n",
		r.VerifyExact(), len(r.Migrated.Queries))
	return b.String()
}

// Execute performs a planned migration on a real store and verifies it:
// the FROM layout is materialized through the storage engine (sampled at
// cfg.MaxRows, the replay rule), transformed into the TO layout with the
// partition-parallel Repartition, the measured transition compared against
// the migration cost model at the executed scale, and the migrated store
// replayed, its answers checked against the data generator's — all at
// zero tolerance. The migrated store is the only one materialized.
// Non-viable plans execute too: verification is how a refusal is proven
// honest, it just must never touch a production store.
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
	// Materialize (the replay's own sampling rule, so the verification
	// replay sees the same store scale) + the generator's answers at that
	// scale + repartition under one process-wide search slot (all three the
	// same heavy-job class as a replay); released before the verification
	// replay takes its own slot, so stacked acquisition cannot deadlock.
	algo.AcquireSearchSlot()
	e, err := replay.Materialize(tw, p.From, cfg)
	if err != nil {
		algo.ReleaseSearchSlot()
		return nil, fmt.Errorf("migrate: %w", err)
	}
	defer e.Close()
	sample, fromS := e.Table(), e.Layout()
	sampledTW := schema.TableWorkload{Table: sample, Queries: normalizeWeights(tw.Queries)}
	expected := replay.Expected(sampledTW, sample.Rows, cfg.Seed, nil)
	toS, err := partition.New(sample, p.To.Parts)
	var measured storage.RepartitionStats
	if err == nil {
		measured, err = e.Repartition(toS, cfg.Workers)
	}
	algo.ReleaseSearchSlot()
	if err != nil {
		return nil, fmt.Errorf("migrate: %w", err)
	}

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
		Expected:         expected,
	}

	// Verification: replay the workload over the layout the migrated store
	// holds — VerifyExact checks it is the target, and its answers against
	// the generator's. The report is copied out of the execution so a
	// cached migration outcome does not keep its per-operator stats alive.
	label := fmt.Sprintf("migrated(%s)", p.ToAlgorithm)
	migrated, err := replay.OperatorsOn(sampledTW, e.Layout(), e, label, cfg, nil)
	if err != nil {
		return nil, fmt.Errorf("migrate: verify migrated store: %w", err)
	}
	tr := migrated.TableReplay
	rep.Migrated = &tr
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
