package advisor

import (
	"context"
	"fmt"

	"knives/internal/cost"
	"knives/internal/operator"
	"knives/internal/partition"
	"knives/internal/replay"
	"knives/internal/schema"
)

// Replay limits: the server materializes real pages and scans them, so the
// request must not be able to ask for unbounded work.
const (
	// MaxReplayRows caps how many rows one replay may materialize per table.
	MaxReplayRows = 1_000_000
	// MaxReplayWorkers caps the requested worker pool (the count never
	// changes a reported number, only memory and scheduling).
	MaxReplayWorkers = 256
)

// DefaultReplayCacheCapacity bounds the replay report cache. Reports carry
// per-query measurements and are an order of magnitude bigger than advice
// entries, so the bound is correspondingly smaller.
const DefaultReplayCacheCapacity = 256

// ReplayOptions are the knobs one replay request may turn. The zero value
// uses the service defaults.
type ReplayOptions struct {
	// MaxRows caps the materialized rows per table; 0 uses
	// replay.DefaultMaxRows.
	MaxRows int64
	// Seed feeds the deterministic data generator.
	Seed int64
	// Workers bounds the replay worker pool; 0 uses GOMAXPROCS. Workers
	// never affect the report's numbers, so they are NOT part of the
	// replay cache key.
	Workers int
	// ExecMode is a label that selects nothing: "", "row" or "vector" is
	// accepted (anything else refused), and the report echoes it ("row" for
	// the empty one). Like Workers, no exec knob can change a result, so
	// none of them join the exec cache key.
	ExecMode string
	// BatchSize is the pipelines' rows per batch (0 = default).
	BatchSize int
	// ExecWorkers is accepted and range-checked for the clients that send
	// it, and has no effect (operator.ExecOptions.Workers).
	ExecWorkers int
}

// validate enforces the request-side limits.
func (o ReplayOptions) validate() error {
	if o.MaxRows < 0 || o.MaxRows > MaxReplayRows {
		return fmt.Errorf("%w: max_rows %d out of range [0, %d]", ErrBadReplay, o.MaxRows, MaxReplayRows)
	}
	if o.Workers < 0 || o.Workers > MaxReplayWorkers {
		return fmt.Errorf("%w: workers %d out of range [0, %d]", ErrBadReplay, o.Workers, MaxReplayWorkers)
	}
	if _, err := (operator.ExecOptions{Mode: operator.ExecMode(o.ExecMode)}).Normalized(); err != nil {
		return fmt.Errorf("%w: %v", ErrBadReplay, err)
	}
	if o.BatchSize < 0 || o.BatchSize > operator.MaxBatchSize {
		return fmt.Errorf("%w: batch_size %d out of range [0, %d]", ErrBadReplay, o.BatchSize, operator.MaxBatchSize)
	}
	if o.ExecWorkers < 0 || o.ExecWorkers > MaxReplayWorkers {
		return fmt.Errorf("%w: exec_workers %d out of range [0, %d]", ErrBadReplay, o.ExecWorkers, MaxReplayWorkers)
	}
	return nil
}

// ErrBadReplay reports replay options the service refuses to execute.
var ErrBadReplay = fmt.Errorf("advisor: invalid replay request")

// replayConfigFor translates a pricing model into a replay config: the
// model's full device becomes the config's device (replay.Config treats a
// named Disk with an empty Model as the device itself), so the engine
// materializes, measures, and prices on exactly the hardware the request
// resolved. MaxRows is defaulted here because it joins the cache keys.
func replayConfigFor(m cost.Model, opt ReplayOptions) (replay.Config, error) {
	dm, ok := m.(*cost.DeviceModel)
	if !ok {
		return replay.Config{}, fmt.Errorf("advisor: cost model %s has no replay pricing", m.Name())
	}
	cfg := replay.Config{
		Disk:        dm.Device(),
		MaxRows:     opt.MaxRows,
		Seed:        opt.Seed,
		Workers:     opt.Workers,
		ExecMode:    opt.ExecMode,
		BatchSize:   opt.BatchSize,
		ExecWorkers: opt.ExecWorkers,
	}
	if cfg.MaxRows == 0 {
		cfg.MaxRows = replay.DefaultMaxRows
	}
	return cfg, nil
}

// execPlan is what the executed-report chain decides BEFORE consulting its
// cache: the weight-normalized workload, the replay config, the resolved
// selection (nil without one), and the cache key.
type execPlan struct {
	tw  schema.TableWorkload
	cfg replay.Config
	sel *replay.Selection
	key execKey
}

// planExec is the chain's prelude: validate the options, translate the model
// into a replay config, resolve the selection against the table, normalize
// the weights, and fingerprint the workload. Every rejection of outside
// input on the chain lives here.
func planExec(tw schema.TableWorkload, opt ReplayOptions, sel *ExecSelection, m cost.Model, mkey string) (execPlan, error) {
	if err := opt.validate(); err != nil {
		return execPlan{}, err
	}
	cfg, err := replayConfigFor(m, opt)
	if err != nil {
		return execPlan{}, err
	}
	if tw.Table == nil {
		return execPlan{}, fmt.Errorf("advisor: nil table")
	}
	p := execPlan{cfg: cfg}
	if sel != nil {
		if p.sel, err = sel.On(tw.Table); err != nil {
			return execPlan{}, err
		}
		p.key.sel = *sel
	}
	p.tw = normalizeWeights(tw)
	p.key.fp, p.key.model, p.key.rows, p.key.seed = FingerprintOf(p.tw), mkey, cfg.MaxRows, cfg.Seed
	return p, nil
}

// advisedLayout answers the workload's advice (from the fingerprint cache,
// searching on a miss) and rebinds the advised layout onto THIS workload's
// table: cached advice may have been computed for an earlier request whose
// *Table pointer differs (the fingerprint guarantees identical schemas).
func (s *Service) advisedLayout(ctx context.Context, tw schema.TableWorkload, m cost.Model, mkey string) (partition.Partitioning, string, error) {
	advice, _, _, err := s.adviseTableAs(ctx, tw, m, mkey)
	if err != nil {
		return partition.Partitioning{}, "", err
	}
	layout, err := partition.New(tw.Table, advice.Layout.Parts)
	return layout, advice.Algorithm, err
}
