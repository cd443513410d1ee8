package knives

import (
	"knives/internal/algorithms"
	"knives/internal/partition"
	"knives/internal/replay"
)

// Replay types: the execution-backed validation layer. An execution
// materializes a layout through the storage engine, runs the full per-table
// workload as σ/π/⋈ operator pipelines, and reports measured seeks, bytes,
// and simulated time against the cost model's predictions — which must
// agree bit for bit — with each query's plan and per-operator accounting
// alongside; a selection can be pushed into the scans. The report's
// TableReplay is the totals alone.
type (
	// ReplayConfig parameterizes a replay (device/model name with optional
	// hardware overrides, row cap, worker pool, seed, backend).
	ReplayConfig = replay.Config
	// TableReplay is the report of replaying one table's workload.
	TableReplay = replay.TableReplay
	// QueryReplay is one query's measured execution next to its prediction.
	QueryReplay = replay.QueryReplay
	// OperatorReplay is a TableReplay with the per-query plans and
	// per-operator accounting its numbers were composed from alongside.
	OperatorReplay = replay.OperatorReplay
	// Selection pushes σ(attr < bound) into every pipeline of an
	// operator-backed execution.
	Selection = replay.Selection
)

// searchLayout resolves name to a layout for tw under cfg's cost model. The
// name search lives here, not in replay, so that knivesd, which replays
// only advised layouts, links no knife it does not serve.
func searchLayout(tw TableWorkload, name string, cfg ReplayConfig) (Partitioning, string, error) {
	_, m, err := cfg.Normalized()
	if err != nil {
		return Partitioning{}, "", err
	}
	return algorithms.Layout(tw, name, m)
}

// ExecuteLayout materializes the table under the given layout and EXECUTES
// the workload as σ/π/⋈ operator pipelines over an epoch snapshot — the
// measured totals still equal the cost model bit for bit, now decomposed
// into per-operator terms. A non-nil sel pushes its predicate into every
// query's scans.
func ExecuteLayout(tw TableWorkload, layout Partitioning, algorithm string, cfg ReplayConfig, sel *Selection) (*OperatorReplay, error) {
	return replay.Operators(tw, layout, algorithm, cfg, sel)
}

// ExecuteAlgorithm searches the full-scale workload with the named
// algorithm ("Row"/"Column" name the baseline families) and executes the
// resulting layout through operator pipelines.
func ExecuteAlgorithm(tw TableWorkload, name string, cfg ReplayConfig, sel *Selection) (*OperatorReplay, error) {
	layout, resolved, err := searchLayout(tw, name, cfg)
	if err != nil {
		return nil, err
	}
	return replay.Operators(tw, layout, resolved, cfg, sel)
}

// ExecuteAdvice executes an advisor recommendation through operator
// pipelines: the advised layout is rebound onto the workload's table.
func ExecuteAdvice(tw TableWorkload, advice TableAdvice, cfg ReplayConfig, sel *Selection) (*OperatorReplay, error) {
	layout, err := partition.New(tw.Table, advice.Layout.Parts)
	if err != nil {
		return nil, err
	}
	return replay.Operators(tw, layout, advice.Algorithm, cfg, sel)
}
