// Package replay closes the loop between the paper's estimated verdicts and
// executed I/O: it materializes any advised layout through the storage
// engine (mem- or file-backed pages), executes the full per-table workload
// as operator pipelines over one epoch snapshot — run as one lockstep group
// (operator.RunGroup) on the request's goroutine, which evaluates σ once
// per batch and folds each shared column prefix once — and reports measured
// seeks, bytes, cache lines, and simulated time next to the cost model's
// predictions — per query and in aggregate.
//
// The headline guarantee is measured == predicted with ZERO tolerance: the
// engine and the cost model share no pricing code, but they describe the
// same system (common-granularity reads, proportional buffer sharing,
// per-partition seek/scan charging), so every replayed number must equal
// the model's formula bit for bit — on ANY device: the engine materializes
// and accounts with the same resolved cost.Device the model prices with.
// The differential test suite pins this for every algorithm x benchmark x
// device (HDD, SSD, MM); a single last-bit divergence means one of the two
// implementations no longer simulates the paper's system.
//
// Tables larger than Config.MaxRows are materialized at a sampled row
// count. Callers search layouts on the FULL-scale workload (the paper's
// setting); only the physical copy the engine scans is sampled,
// and the model prices the sampled table, so the comparison stays exact.
package replay

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"time"

	"knives/internal/algo"
	"knives/internal/attrset"
	"knives/internal/cost"
	"knives/internal/operator"
	"knives/internal/partition"
	"knives/internal/schema"
	"knives/internal/storage"
)

// DefaultMaxRows caps how many rows of a table a replay materializes. TPC-H
// SF 10's Lineitem has ~60M rows; scanning that per query per algorithm is
// wall-clock prohibitive, and the measured-equals-predicted guarantee holds
// at any row count, so replays default to a sample.
const DefaultMaxRows = 50_000

// Backend kinds a replay can materialize partitions on.
const (
	BackendMem  = "mem"
	BackendFile = "file"
)

// Config parameterizes a replay.
type Config struct {
	// Model names the device the measurements are validated against:
	// "hdd", "ssd", or "mm" (case-insensitive; cost.DeviceByName lists the
	// aliases). Empty means "hdd".
	Model string
	// Disk optionally overrides the named device's hardware parameters
	// (every non-zero field applies). After normalization it holds the
	// RESOLVED device — the one the engine materializes, scans, and
	// accounts with, and the model prices with, which is what makes
	// measured == predicted achievable on any device.
	Disk cost.Device
	// MaxRows caps the materialized row count per table; 0 uses
	// DefaultMaxRows, negative is invalid.
	MaxRows int64
	// Workers bounds the partition-parallel load; <= 0 uses GOMAXPROCS.
	// The execution is one lockstep group on the calling goroutine whatever
	// it says. The worker count never changes a single reported number —
	// only how fast it is produced. The served path leaves it zero; the
	// benchmark and the tests set it.
	Workers int
	// Seed feeds the deterministic data generator.
	Seed int64
	// Backend selects where partition pages live: BackendMem (default) or
	// BackendFile.
	Backend string
	// Dir is the directory for file-backed partitions; required iff
	// Backend is BackendFile.
	Dir string
	// ExecMode is a label and selects nothing: "", "row" or "vector" is
	// validated (operator.ExecOptions.Normalized), defaulted to "row" and
	// echoed on OperatorReplay.ExecMode. Every replay runs the one executor.
	ExecMode string
	// BatchSize is the pipelines' rows per batch; 0 uses the operator
	// layer's default. Production leaves it zero: it is the seam the
	// differential suite's batch-size legs turn, which hold every reported
	// number batch-size-invariant.
	BatchSize int
}

// Normalized validates and defaults a config, returning the cost model the
// replay prices against. The migration subsystem shares it so a migrate
// execution and the replay that verifies it can never disagree about
// defaults.
func (c Config) Normalized() (Config, cost.Model, error) { return c.normalized() }

// normalized validates and defaults a config, returning the cost model the
// replay prices against.
func (c Config) normalized() (Config, cost.Model, error) {
	// Resolve the device the replay runs on. A NAMED Disk with no Model is
	// taken as the full device itself (the advisor hands its model's device
	// over this way, overrides and all); otherwise the Model name resolves
	// a preset and c.Disk's non-zero fields override its parameters. Either
	// way the validated result becomes the config's device, so the engine
	// and the model can never disagree about the hardware.
	var m cost.Model
	if c.Model == "" && c.Disk.Name != "" {
		dm, err := cost.NewDeviceModel(c.Disk)
		if err != nil {
			return c, nil, fmt.Errorf("replay: %w", err)
		}
		m = dm
		c.Model = strings.ToLower(dm.Name())
	} else {
		if c.Model == "" {
			c.Model = "hdd"
		}
		named, err := cost.ModelByName(c.Model, c.Disk)
		if err != nil {
			return c, nil, fmt.Errorf("replay: %w", err)
		}
		m = named
	}
	c.Disk = m.(*cost.DeviceModel).Device()
	switch c.MaxRows {
	case 0:
		c.MaxRows = DefaultMaxRows
	default:
		if c.MaxRows < 0 {
			return c, nil, fmt.Errorf("replay: MaxRows %d must be non-negative", c.MaxRows)
		}
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	switch c.Backend {
	case "":
		c.Backend = BackendMem
	case BackendMem, BackendFile:
	default:
		return c, nil, fmt.Errorf("replay: unknown backend %q (%s or %s)", c.Backend, BackendMem, BackendFile)
	}
	if c.Backend == BackendFile && c.Dir == "" {
		return c, nil, fmt.Errorf("replay: file backend needs Dir")
	}
	// Exec knobs validate and default through the operator layer itself, so
	// a replay and the pipeline it builds can never disagree about legality.
	eo, err := operator.ExecOptions{Mode: operator.ExecMode(c.ExecMode), BatchSize: c.BatchSize}.Normalized()
	if err != nil {
		return c, nil, fmt.Errorf("replay: %w", err)
	}
	c.ExecMode, c.BatchSize = string(eo.Mode), eo.BatchSize
	return c, m, nil
}

// QueryReplay is one query's measured execution next to its prediction.
type QueryReplay struct {
	ID     string
	Weight float64
	// Stats is what the engine measured: real page reads, buffer refills,
	// cache lines, reconstruction joins, and the layout-independent
	// checksum of the projected values.
	Stats storage.ScanStats
	// MeasuredSeconds prices the measured execution in the cost model's
	// unit (HDD: the virtual disk's simulated time; MM: measured cache
	// lines times the miss latency).
	MeasuredSeconds float64
	// PredictedSeconds is the cost model's estimate for this query.
	PredictedSeconds float64
	// PredictedBytes and PredictedSeeks are the disk mechanics the cost
	// formulas imply, for integer-exact comparison against Stats.
	PredictedBytes int64
	PredictedSeeks int64
}

// Delta returns measured minus predicted seconds.
func (q QueryReplay) Delta() float64 { return q.MeasuredSeconds - q.PredictedSeconds }

// Exact reports whether every measured quantity equals its prediction.
func (q QueryReplay) Exact() bool {
	return q.MeasuredSeconds == q.PredictedSeconds &&
		q.Stats.BytesRead == q.PredictedBytes &&
		q.Stats.Seeks == q.PredictedSeeks
}

// TableReplay is the report of replaying one table's workload on one layout.
type TableReplay struct {
	Table     string
	Algorithm string // what produced the layout ("HillClimb", "Row", ...)
	// Layout is the replayed partitioning, over the (possibly sampled)
	// materialized table.
	Layout partition.Partitioning
	// RowsFull is the logical table's row count; RowsReplayed is how many
	// rows were actually materialized and scanned.
	RowsFull, RowsReplayed int64
	Model                  string
	Backend                string
	Queries                []QueryReplay
	// MeasuredTotal and PredictedTotal are the weighted workload sums,
	// accumulated with cost.WorkloadCost's exact arithmetic.
	MeasuredTotal, PredictedTotal float64
	// Unweighted engine totals across all queries.
	BytesRead, Seeks, ReconJoins, Tuples int64
}

// Exact reports whether every query and the aggregate matched predictions
// exactly.
func (r *TableReplay) Exact() bool {
	for _, q := range r.Queries {
		if !q.Exact() {
			return false
		}
	}
	return r.MeasuredTotal == r.PredictedTotal
}

// MaxAbsDelta returns the largest per-query |measured - predicted|.
func (r *TableReplay) MaxAbsDelta() float64 {
	var m float64
	for _, q := range r.Queries {
		if d := q.Delta(); d > m {
			m = d
		} else if -d > m {
			m = -d
		}
	}
	return m
}

// String renders the replay as an aligned text report.
func (r *TableReplay) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "replay %s: algorithm=%s model=%s backend=%s rows=%d/%d\n",
		r.Table, r.Algorithm, r.Model, r.Backend, r.RowsReplayed, r.RowsFull)
	fmt.Fprintf(&b, "  layout %s\n", r.Layout)
	fmt.Fprintf(&b, "  %-8s %6s %8s %12s %8s %14s %14s %10s\n",
		"query", "weight", "seeks", "bytes", "joins", "measured(s)", "predicted(s)", "delta")
	for _, q := range r.Queries {
		fmt.Fprintf(&b, "  %-8s %6.1f %8d %12d %8d %14.6e %14.6e %10.1e\n",
			q.ID, q.Weight, q.Stats.Seeks, q.Stats.BytesRead, q.Stats.ReconJoins,
			q.MeasuredSeconds, q.PredictedSeconds, q.Delta())
	}
	fmt.Fprintf(&b, "  total: measured=%.9e predicted=%.9e exact=%v\n",
		r.MeasuredTotal, r.PredictedTotal, r.Exact())
	return b.String()
}

// Layout materializes the table through the storage engine under the given
// layout and replays the workload's queries in one lockstep group, comparing
// every measurement against the cost model: Operators without a selection,
// less the per-operator breakdown. The layout must partition tw.Table;
// tables larger than cfg.MaxRows are materialized at a sampled row count
// (the layout and the model both move to the sampled table, so exactness is
// preserved).
func Layout(tw schema.TableWorkload, layout partition.Partitioning, algorithm string, cfg Config) (*TableReplay, error) {
	return tableReplay(run(tw, layout, nil, algorithm, cfg, nil))
}

// tableReplay drops an execution's per-operator breakdown: the TableReplay
// is copied out, so a report cache holding it does not pin the plans and
// operator stats it was composed from.
func tableReplay(rep *OperatorReplay, err error) (*TableReplay, error) {
	if err != nil {
		return nil, err
	}
	tr := rep.TableReplay
	return &tr, nil
}

// run is the one replay core behind Layout, Operators, and OperatorsOn: it
// validates the request, takes the process-wide search slot, obtains the
// loaded engine (materializing layout, or adopting loaded), pins
// one epoch snapshot, builds one operator pipeline per query over it —
// every pipeline opens its own cursors — and runs them as one lockstep group
// on the calling goroutine (operator.RunGroup), prices every measurement
// against the model, and accumulates the weighted totals. With a non-nil
// sel, every plan gains a σ pushed onto the partition scan holding sel.Attr
// and every query is priced over its attributes plus that attribute.
//
// One group shares the most work and holds one core per search slot. On an
// idle two-core box, two groups on two cores ran the served lineitem shape
// in about 2.7 ms and one group takes 3.7 ms; under two closed-loop
// clients, whose requests already fill both cores, the second group bought
// nothing end to end.
//
// With a nil loaded, run materializes layout and closes it on return.
// Otherwise loaded is a SHARED engine that must hold layout's sampled twin —
// compared by value, because a resident engine outlives the request whose
// table pointer it was built from — and that run only ever reads.
//
// Results land at their query's index and the aggregation runs in query
// order, keeping every reported number independent of the worker count;
// only ExecSeconds, wall clock, sees it.
func run(tw schema.TableWorkload, layout partition.Partitioning, loaded *storage.Engine, algorithm string,
	cfg Config, sel *Selection) (*OperatorReplay, error) {
	cfg, model, err := cfg.normalized()
	if err != nil {
		return nil, err
	}
	if tw.Table == nil {
		return nil, fmt.Errorf("replay: nil table")
	}
	if layout.Table != tw.Table {
		return nil, fmt.Errorf("replay: layout partitions %v, workload is over %s", layout.Table, tw.Table.Name)
	}
	if err := layout.Validate(); err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	if loaded != nil {
		if err := holdsSample(loaded, layout, cfg.MaxRows); err != nil {
			return nil, err
		}
	}
	// A replay materializes up to MaxRows of real pages and executes over them
	// — the same class of heavy job as a search. Drawing from the
	// process-wide gate bounds concurrent replays (stacked fan-outs, parallel
	// /replay requests) by the core count instead of letting each request
	// hold its own table copy. No caller holds a slot while invoking a
	// replay, so this cannot deadlock.
	algo.AcquireSearchSlot()
	defer algo.ReleaseSearchSlot()

	e := loaded
	if e == nil {
		if e, err = Materialize(tw, layout, cfg); err != nil {
			return nil, err
		}
		defer e.Close()
	}
	current := e.Layout()
	sample := current.Table
	parts := current.Canonical().Parts
	n := len(tw.Queries)
	rep := &OperatorReplay{
		TableReplay: TableReplay{
			Table:        sample.Name,
			Algorithm:    algorithm,
			Layout:       current,
			RowsFull:     tw.Table.Rows,
			RowsReplayed: e.Rows(),
			Model:        model.Name(),
			Backend:      cfg.Backend,
			Queries:      make([]QueryReplay, n),
		},
		Plans:      make([]string, n),
		Ops:        make([][]operator.OpStats, n),
		ExecMode:   cfg.ExecMode,
		FillRatios: make([][]float64, n),
	}
	if sel != nil {
		rep.Selection = sel.String()
	}
	opts := operator.ExecOptions{BatchSize: cfg.BatchSize}
	snap := e.Snapshot()
	pipes := make([]*operator.Pipeline, n)
	for i, q := range tw.Queries {
		if pipes[i], err = operator.BuildExec(snap, cfg.Disk, q.Attrs, sel, opts); err != nil {
			return nil, fmt.Errorf("replay: plan %s/%s: %w", sample.Name, q.ID, err)
		}
	}
	execStart := time.Now()
	results, err := operator.RunGroup(pipes)
	if err != nil {
		return nil, fmt.Errorf("replay: exec %s: %w", sample.Name, err)
	}
	rep.ExecSeconds = time.Since(execStart).Seconds()
	for i, q := range tw.Queries {
		res := results[i]
		rep.FillRatios[i] = res.FillRatios
		rep.Plans[i] = pipes[i].Describe()
		rep.Ops[i] = res.Ops
		// Price what the execution references: the query's attributes plus
		// the selection attribute σ reads.
		priced := q.Attrs
		if sel != nil {
			priced = priced.Union(attrset.Single(sel.Attr)).Intersect(sample.AllAttrs())
		}
		rep.Queries[i] = QueryReplay{
			ID:               q.ID,
			Weight:           q.Weight,
			Stats:            res.Stats,
			MeasuredSeconds:  operator.MeasuredSeconds(cfg.Disk, res.Stats),
			PredictedSeconds: model.QueryCost(sample, parts, priced),
			PredictedBytes:   cost.ScanBytes(sample, parts, priced, cfg.Disk.BlockSize),
			PredictedSeeks:   predictedSeeks(sample, parts, priced, cfg.Disk),
		}
	}

	// Weighted totals, mirroring cost.WorkloadCost's arithmetic (weighted
	// product rounded in its own statement before the running sum).
	for i := range rep.Queries {
		q := &rep.Queries[i]
		mq := q.Weight * q.MeasuredSeconds
		rep.MeasuredTotal += mq
		pq := q.Weight * q.PredictedSeconds
		rep.PredictedTotal += pq
		rep.BytesRead += q.Stats.BytesRead
		rep.Seeks += q.Stats.Seeks
		rep.ReconJoins += q.Stats.ReconJoins
		rep.Tuples += q.Stats.Tuples
	}
	return rep, nil
}

// holdsSample reports (as an error) whether a shared engine stores what
// Materialize would build for layout at maxRows: the same table by name,
// sampled row count, and columns, cut into the same partitions. The page
// size is checked where it matters, by every cursor opened on the engine.
func holdsSample(e *storage.Engine, layout partition.Partitioning, maxRows int64) error {
	have, want := e.Table(), layout.Table
	rows := min(want.Rows, maxRows)
	if have.Name != want.Name || have.Rows != rows || e.Rows() != rows || !slices.Equal(have.Columns, want.Columns) {
		return fmt.Errorf("replay: engine stores %s (%d rows, %d columns), workload is over %s (%d sampled rows, %d columns)",
			have.Name, e.Rows(), len(have.Columns), want.Name, rows, len(want.Columns))
	}
	if !slices.Equal(e.Layout().Parts, layout.Canonical().Parts) {
		return fmt.Errorf("replay: engine stores %s as %s, the replayed layout is %s", have.Name, e.Layout(), layout)
	}
	return nil
}

// Materialize samples the table to cfg.MaxRows, builds the engine for the
// layout on cfg's backend, and loads the deterministic data — the one
// materialization every replay, execution, and migration starts from. The
// caller owns (and closes) the engine, whose Table() is the sampled twin;
// cfg must already be normalized. Attribute sets are positional, so the
// full-scale layout transfers to the sampled twin unchanged.
func Materialize(tw schema.TableWorkload, layout partition.Partitioning, cfg Config) (*storage.Engine, error) {
	sample := tw.Table
	var err error
	if sample.Rows > cfg.MaxRows {
		sample, err = schema.NewTable(tw.Table.Name, cfg.MaxRows, tw.Table.Columns)
		if err != nil {
			return nil, fmt.Errorf("replay: sample %s: %w", tw.Table.Name, err)
		}
	}
	sampled, err := partition.New(sample, layout.Parts)
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}

	var newBackend func(name string, pageSize int) (storage.Backend, error)
	if cfg.Backend == BackendFile {
		dir := cfg.Dir
		newBackend = func(name string, pageSize int) (storage.Backend, error) {
			return storage.NewFileBackend(dir, name, pageSize)
		}
	}
	e, err := storage.NewEngine(sampled, cfg.Disk, newBackend)
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	if err := e.LoadParallel(storage.NewGenerator(cfg.Seed), sample.Rows, cfg.Workers); err != nil {
		e.Close()
		return nil, fmt.Errorf("replay: load %s: %w", sample.Name, err)
	}
	return e, nil
}

// Answer is one query's result as the data generator gives it: the row
// digest of its rows (storage's digest.go) and how many rows it returns.
type Answer struct {
	Checksum uint64
	Rows     int64
}

// Expected is the oracle an execution's answers are checked against: each
// query of tw over rows 0..rows-1 of what the generator makes under seed,
// kept by sel when it is non-nil. It is one row-at-a-time pass that
// generates each referenced column once per row and adds up the cells with
// storage.Cell only — no store, no operator code and no column kernel, so
// it shares no primitive with what it checks. Each referenced cell is
// hashed once and added to every query projecting it. sel must be one the
// executor accepts: an attribute of the table at least four bytes wide. A
// query referencing nothing without a σ returns no rows.
func Expected(tw schema.TableWorkload, rows, seed int64, sel *Selection) []Answer {
	t, gen := tw.Table, storage.NewGenerator(seed)
	index := make(map[attrset.Set]int) // a distinct column set's slot in cols
	var cols [][]int
	var distinct []Answer
	var projected attrset.Set
	for _, q := range tw.Queries {
		set := q.Attrs.Intersect(t.AllAttrs())
		if _, ok := index[set]; !ok {
			index[set] = len(cols)
			cols = append(cols, set.Attrs())
			distinct = append(distinct, Answer{Checksum: storage.ChecksumSeed})
		}
		projected = projected.Union(set)
	}
	referenced := projected
	if sel != nil {
		referenced = referenced.Add(sel.Attr)
	}
	vals := make([][]byte, len(t.Columns))
	for a, c := range t.Columns {
		vals[a] = make([]byte, c.Size)
	}
	generated, hashed := referenced.Attrs(), projected.Attrs()
	cells := make([]uint64, len(t.Columns))
	for r := int64(0); r < rows; r++ {
		for _, a := range generated {
			gen.Value(t.Columns[a], r, vals[a])
		}
		if sel != nil && binary.LittleEndian.Uint32(vals[sel.Attr]) >= sel.Bound {
			continue
		}
		for _, a := range hashed {
			cells[a] = storage.Cell(r, a, vals[a])
		}
		for k, qc := range cols {
			if len(qc) > 0 || sel != nil {
				h := distinct[k].Checksum + storage.RowSeed
				for _, a := range qc {
					h += cells[a]
				}
				distinct[k].Checksum = h
				distinct[k].Rows++
			}
		}
	}
	answers := make([]Answer, len(tw.Queries))
	for i, q := range tw.Queries {
		answers[i] = distinct[index[q.Attrs.Intersect(t.AllAttrs())]]
	}
	return answers
}

// predictedSeeks computes the buffer refills the HDD formulas imply for a
// query: per referenced partition, cost.PartitionSeeks under the
// proportional buffer split. This is disk mechanics, not model pricing, so
// it applies to the engine regardless of the cost model replayed against.
func predictedSeeks(t *schema.Table, parts []schema.Set, query schema.Set, d cost.Disk) int64 {
	var totalRowSize int64
	for _, p := range parts {
		if p.Overlaps(query) {
			totalRowSize += t.SetSize(p)
		}
	}
	var seeks int64
	for _, p := range parts {
		if p.Overlaps(query) {
			seeks += cost.PartitionSeeks(t.Rows, t.SetSize(p), totalRowSize, d)
		}
	}
	return seeks
}
