package knives

import (
	"fmt"

	"knives/internal/algo"
	"knives/internal/algorithms"
	"knives/internal/partition"
	"knives/internal/replay"
)

// Replay types: the execution-backed validation layer. A replay
// materializes a layout through the storage engine, executes the full
// per-table workload as σ/π/⋈ operator pipelines with a parallel worker
// pool, and reports measured seeks, bytes, and simulated time against the
// cost model's predictions — which must agree bit for bit. Replay* and
// Execute* run the same executor; Execute* also reports each query's plan
// and per-operator accounting, and can push a selection into the scans.
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

// ReplayLayout materializes the table under the given layout and replays
// the workload, comparing every measurement against the cost model.
func ReplayLayout(tw TableWorkload, layout Partitioning, algorithm string, cfg ReplayConfig) (*TableReplay, error) {
	return replay.Layout(tw, layout, algorithm, cfg)
}

// ReplayAlgorithm searches the full-scale workload with the named algorithm
// ("Row" and "Column" name the baseline families) and replays the result.
func ReplayAlgorithm(tw TableWorkload, name string, cfg ReplayConfig) (*TableReplay, error) {
	layout, resolved, err := searchLayout(tw, name, cfg)
	if err != nil {
		return nil, err
	}
	return replay.Layout(tw, layout, resolved, cfg)
}

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

// ReplayBenchmark replays every table of a benchmark under the named
// algorithm, fanning tables out concurrently. Reports keep the benchmark's
// table order; the lowest-index error wins.
func ReplayBenchmark(b *Benchmark, name string, cfg ReplayConfig) ([]*TableReplay, error) {
	if b == nil {
		return nil, fmt.Errorf("knives: nil benchmark")
	}
	tws := b.TableWorkloads()
	out := make([]*TableReplay, len(tws))
	err := algo.FanOut(len(tws), func(i int) (err error) {
		out[i], err = ReplayAlgorithm(tws[i], name, cfg)
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ReplayAdvice replays an advisor recommendation: the advised layout is
// rebound onto the workload's table and replayed under the config.
func ReplayAdvice(tw TableWorkload, advice TableAdvice, cfg ReplayConfig) (*TableReplay, error) {
	layout, err := partition.New(tw.Table, advice.Layout.Parts)
	if err != nil {
		return nil, err
	}
	return replay.Layout(tw, layout, advice.Algorithm, cfg)
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
