package advisor

import (
	"fmt"
	"strings"

	"knives/internal/attrset"
	"knives/internal/operator"
	"knives/internal/partition"
	"knives/internal/replay"
	"knives/internal/schema"
)

// Wire types: the JSON workload format knivesd ingests. Tables and queries
// mirror schema.Table / schema.Query with columns referenced by name, plus
// a benchmark shorthand so clients can ask about TPC-H/SSB without
// restating the paper's schemas.

// ColumnSpec describes one column of a table.
type ColumnSpec struct {
	Name string `json:"name"`
	Kind string `json:"kind,omitempty"` // int, decimal, date, char, varchar
	Size int    `json:"size"`
}

// TableSpec describes one table.
type TableSpec struct {
	Name    string       `json:"name"`
	Rows    int64        `json:"rows"`
	Columns []ColumnSpec `json:"columns"`
}

// QuerySpec is one workload query: per-table referenced column names.
type QuerySpec struct {
	ID     string              `json:"id,omitempty"`
	Weight float64             `json:"weight,omitempty"`
	Tables map[string][]string `json:"tables"`
}

// AdviseRequest is the body of POST /advise.
type AdviseRequest struct {
	// Benchmark optionally names a built-in benchmark ("tpch" or "ssb") at
	// ScaleFactor (default 10); Tables/Queries must then be empty.
	Benchmark   string  `json:"benchmark,omitempty"`
	ScaleFactor float64 `json:"sf,omitempty"`

	Tables  []TableSpec `json:"tables,omitempty"`
	Queries []QuerySpec `json:"queries,omitempty"`

	// Model optionally names the device this request prices on, with
	// optional hardware overrides; absent means the daemon's configured
	// model. Advice is cached per (workload, device).
	Model *ModelSpec `json:"model,omitempty"`
}

// TableAdviceWire is one table's advice as served over HTTP.
type TableAdviceWire struct {
	Table                 string             `json:"table"`
	Algorithm             string             `json:"algorithm"`
	Layout                [][]string         `json:"layout"`
	Cost                  float64            `json:"cost"`
	RowCost               float64            `json:"row_cost"`
	ColumnCost            float64            `json:"column_cost"`
	ImprovementOverRow    float64            `json:"improvement_over_row"`
	ImprovementOverColumn float64            `json:"improvement_over_column"`
	PerAlgorithm          map[string]float64 `json:"per_algorithm"`
	Fingerprint           string             `json:"fingerprint"`
	Cached                bool               `json:"cached"`
}

// AdviseResponse is the body answering POST /advise.
type AdviseResponse struct {
	Advice []TableAdviceWire `json:"advice"`
}

// ReplayRequest is the body of POST /replay: the same workload forms as
// /advise (benchmark shorthand or explicit tables/queries) plus the replay
// knobs. The server advises the workload (from the fingerprint cache),
// materializes every advised layout through the storage engine, replays the
// full per-table workload, and reports measured execution against the cost
// model's predictions.
type ReplayRequest struct {
	Benchmark   string  `json:"benchmark,omitempty"`
	ScaleFactor float64 `json:"sf,omitempty"`

	Tables  []TableSpec `json:"tables,omitempty"`
	Queries []QuerySpec `json:"queries,omitempty"`

	// MaxRows caps the materialized rows per table (0 = server default,
	// bounded by MaxReplayRows). Seed feeds the deterministic generator.
	MaxRows int64 `json:"max_rows,omitempty"`
	Seed    int64 `json:"seed,omitempty"`

	// Model optionally names the device the replay materializes, measures,
	// and prices on (with optional hardware overrides); absent means the
	// daemon's configured model.
	Model *ModelSpec `json:"model,omitempty"`
}

// query returns the request as the /query it is: the same workload and
// knobs, no selection.
func (r ReplayRequest) query() QueryRequest {
	return QueryRequest{
		Benchmark:   r.Benchmark,
		ScaleFactor: r.ScaleFactor,
		Tables:      r.Tables,
		Queries:     r.Queries,
		MaxRows:     r.MaxRows,
		Seed:        r.Seed,
		Model:       r.Model,
	}
}

// QueryReplayWire is one query's measured execution on the wire.
type QueryReplayWire struct {
	ID               string  `json:"id"`
	Weight           float64 `json:"weight"`
	Seeks            int64   `json:"seeks"`
	BytesRead        int64   `json:"bytes_read"`
	CacheLines       int64   `json:"cache_lines"`
	ReconJoins       int64   `json:"recon_joins"`
	Checksum         string  `json:"checksum"`
	MeasuredSeconds  float64 `json:"measured_seconds"`
	PredictedSeconds float64 `json:"predicted_seconds"`
}

// TableReplayWire is one table's replay report as served over HTTP.
type TableReplayWire struct {
	Table            string            `json:"table"`
	Algorithm        string            `json:"algorithm"`
	Layout           [][]string        `json:"layout"`
	Model            string            `json:"model"`
	RowsReplayed     int64             `json:"rows_replayed"`
	RowsFull         int64             `json:"rows_full"`
	MeasuredSeconds  float64           `json:"measured_seconds"`
	PredictedSeconds float64           `json:"predicted_seconds"`
	Exact            bool              `json:"exact"`
	MaxAbsDelta      float64           `json:"max_abs_delta"`
	BytesRead        int64             `json:"bytes_read"`
	Seeks            int64             `json:"seeks"`
	ReconJoins       int64             `json:"recon_joins"`
	Queries          []QueryReplayWire `json:"queries"`
	Fingerprint      string            `json:"fingerprint"`
	Cached           bool              `json:"cached"`
}

// ReplayResponse is the body answering POST /replay.
type ReplayResponse struct {
	Reports []TableReplayWire `json:"reports"`
}

// SelectionSpec names a σ pushed into one table's pipelines: keep rows
// whose u32 column (int or date) is strictly below Bound.
type SelectionSpec struct {
	Table  string `json:"table"`
	Column string `json:"column"`
	Bound  uint32 `json:"bound"`
}

// QueryRequest is the body of POST /query: the same workload forms as
// /replay, but the server EXECUTES every query as a streaming σ/π/⋈
// operator pipeline over an epoch snapshot of the advised layout, and the
// response decomposes each query's measured cost into per-operator terms —
// still equal to the cost model's predictions at zero tolerance.
type QueryRequest struct {
	Benchmark   string  `json:"benchmark,omitempty"`
	ScaleFactor float64 `json:"sf,omitempty"`

	Tables  []TableSpec `json:"tables,omitempty"`
	Queries []QuerySpec `json:"queries,omitempty"`

	// MaxRows and Seed behave exactly as on /replay.
	MaxRows int64 `json:"max_rows,omitempty"`
	Seed    int64 `json:"seed,omitempty"`

	// Exec is a label and selects nothing: "", "row" or "vector" is accepted
	// (anything else is a 400) and echoed as the report's exec_mode ("row"
	// for the empty one) — every request runs the one executor. It cannot
	// change a result, so it is deliberately NOT part of the exec cache key:
	// requests differing only in it share one cached execution, whose
	// exec_mode is the first request's. bench/ sends "vector", which keeps
	// the field on the wire.
	Exec string `json:"exec,omitempty"`

	// Selection optionally pushes a σ into the named table's pipelines.
	Selection *SelectionSpec `json:"selection,omitempty"`

	// Model optionally names the device to execute and price on.
	Model *ModelSpec `json:"model,omitempty"`
}

// advise returns the request's workload as an AdviseRequest.
func (r QueryRequest) advise() AdviseRequest {
	return AdviseRequest{
		Benchmark:   r.Benchmark,
		ScaleFactor: r.ScaleFactor,
		Tables:      r.Tables,
		Queries:     r.Queries,
		Model:       r.Model,
	}
}

// PipelineWire is one query's executed pipeline on the wire: the measured
// totals plus the plan and its per-operator decomposition (operator.OpStats
// serializes itself).
type PipelineWire struct {
	QueryReplayWire
	Plan       string             `json:"plan"`
	ResultRows int64              `json:"result_rows"`
	Operators  []operator.OpStats `json:"operators"`
}

// TableExecWire is one table's executed workload as served over HTTP.
type TableExecWire struct {
	Table            string         `json:"table"`
	Algorithm        string         `json:"algorithm"`
	Layout           [][]string     `json:"layout"`
	Model            string         `json:"model"`
	Selection        string         `json:"selection,omitempty"`
	ExecMode         string         `json:"exec_mode,omitempty"`
	RowsReplayed     int64          `json:"rows_replayed"`
	RowsFull         int64          `json:"rows_full"`
	MeasuredSeconds  float64        `json:"measured_seconds"`
	PredictedSeconds float64        `json:"predicted_seconds"`
	Exact            bool           `json:"exact"`
	MaxAbsDelta      float64        `json:"max_abs_delta"`
	BytesRead        int64          `json:"bytes_read"`
	Seeks            int64          `json:"seeks"`
	ReconJoins       int64          `json:"recon_joins"`
	Pipelines        []PipelineWire `json:"pipelines"`
	Fingerprint      string         `json:"fingerprint"`
	Cached           bool           `json:"cached"`
}

// QueryResponse is the body answering POST /query.
type QueryResponse struct {
	Reports []TableExecWire `json:"reports"`
}

// MigrateRequest is the body of POST /migrate: plan (and, when the layouts
// differ, execute-and-verify on a sampled store) the migration of a
// registered table from the layout its store holds to the service's
// current — possibly drift-recomputed — advice, amortized over the
// tracker's observed query mix.
type MigrateRequest struct {
	Table string `json:"table"`
	// Window bounds the acceptable break-even horizon in queries of the
	// observed mix (0 = server default). Plans beyond it are refused.
	Window int64 `json:"window,omitempty"`
	// MaxRows and Seed parameterize the sampled verification execution,
	// exactly like /replay's.
	MaxRows int64 `json:"max_rows,omitempty"`
	Seed    int64 `json:"seed,omitempty"`
}

// MigrationWire is one migration outcome as served over HTTP.
type MigrationWire struct {
	Table         string     `json:"table"`
	FromAlgorithm string     `json:"from_algorithm"`
	ToAlgorithm   string     `json:"to_algorithm"`
	FromLayout    [][]string `json:"from_layout"`
	ToLayout      [][]string `json:"to_layout"`
	Model         string     `json:"model"`
	// The plan: full-scale migration cost, per-query gain on the observed
	// mix, and the break-even verdict.
	MigrationSeconds float64 `json:"migration_seconds"`
	PerQueryFrom     float64 `json:"per_query_from"`
	PerQueryTo       float64 `json:"per_query_to"`
	BreakEven        int64   `json:"break_even,omitempty"`
	Window           int64   `json:"window"`
	Viable           bool    `json:"viable"`
	Reason           string  `json:"reason,omitempty"`
	// The sampled execute-and-verify run (absent when nothing moved).
	Executed         bool    `json:"executed"`
	RowsExecuted     int64   `json:"rows_executed,omitempty"`
	MeasuredSeconds  float64 `json:"measured_seconds,omitempty"`
	PredictedSeconds float64 `json:"predicted_seconds,omitempty"`
	CostExact        bool    `json:"cost_exact"`
	VerifyExact      bool    `json:"verify_exact"`
	// AppliedUpdated reports whether the tracker now considers the store
	// migrated to the advised layout.
	AppliedUpdated bool   `json:"applied_updated"`
	FromFP         string `json:"from_fingerprint"`
	ToFP           string `json:"to_fingerprint"`
	Cached         bool   `json:"cached"`
}

// toMigrationWire renders a migration outcome for the wire.
func toMigrationWire(o *MigrationOutcome, cached bool) MigrationWire {
	p := o.Plan
	t := p.Table
	partNames := func(pg [][]string, parts []schema.Set) [][]string {
		for _, part := range parts {
			pg = append(pg, t.AttrNames(part))
		}
		return pg
	}
	w := MigrationWire{
		Table:            o.Table,
		FromAlgorithm:    p.FromAlgorithm,
		ToAlgorithm:      p.ToAlgorithm,
		FromLayout:       partNames(nil, p.From.Parts),
		ToLayout:         partNames(nil, p.To.Parts),
		Model:            p.Model,
		MigrationSeconds: p.Migration.Seconds,
		PerQueryFrom:     p.PerQueryFrom,
		PerQueryTo:       p.PerQueryTo,
		BreakEven:        p.BreakEven,
		Window:           p.Window,
		Viable:           p.Viable,
		Reason:           p.Reason,
		AppliedUpdated:   o.AppliedUpdated,
		FromFP:           o.FromFP.String(),
		ToFP:             o.ToFP.String(),
		Cached:           cached,
	}
	if r := o.Report; r != nil {
		w.Executed = true
		w.RowsExecuted = r.RowsExecuted
		w.MeasuredSeconds = r.MeasuredSeconds
		w.PredictedSeconds = r.PredictedSeconds
		w.CostExact = r.CostExact()
		w.VerifyExact = r.VerifyExact()
	} else {
		// Nothing moved; trivially exact.
		w.CostExact = true
		w.VerifyExact = true
	}
	return w
}

// ObserveRequest is the body of POST /observe: Batches carries many tables
// × many queries in one request, answered with one TableObserveVerdict per
// entry, in order. Entries fail independently: an unknown table or bad
// query in one batch never blocks its neighbors.
//
// Batches for the same table are applied in slice order; batches for
// different tables may interleave with other requests.
type ObserveRequest struct {
	Batches []TableObservation `json:"batches,omitempty"`

	// BatchID optionally identifies this request for redelivery dedup: a
	// retry re-sending the same ID after a lost response answers from the
	// server's dedup window instead of re-ingesting (and double-counting)
	// the applied batches. IDs must be unique per LOGICAL batch — reusing
	// one for different content answers the first content's verdicts.
	BatchID string `json:"batch_id,omitempty"`
}

// TableObservation is one table's slice of a batched observe request.
type TableObservation struct {
	Table   string        `json:"table"`
	Queries []ObservedQry `json:"queries"`
}

// ObservedQry is one observed query: referenced column names and weight.
// A weight of 0 — the JSON default for an omitted field — is coerced to 1,
// the same convention /advise applies to workload queries; negative or NaN
// weights are rejected.
type ObservedQry struct {
	Attrs  []string `json:"attrs"`
	Weight float64  `json:"weight,omitempty"`
}

// ObserveResponse reports the drift state after an observation request:
// one verdict per submitted TableObservation, in submission order.
type ObserveResponse struct {
	Verdicts []TableObserveVerdict `json:"verdicts,omitempty"`

	// Duplicate reports that the request's BatchID was already applied and
	// the verdicts above are the original ingest's, replayed from the
	// dedup window — nothing was re-ingested.
	Duplicate bool `json:"duplicate,omitempty"`
}

// TableObserveVerdict is one batch entry's outcome in an observe response.
// Status is the HTTP code the failure would earn as a request of its own
// (200, 400, 404, 409, 503, 500); Error is empty on success, in which case
// Drift/Advice carry the post-ingest state.
type TableObserveVerdict struct {
	Table  string          `json:"table"`
	Status int             `json:"status"`
	Error  string          `json:"error,omitempty"`
	Drift  DriftReport     `json:"drift"`
	Advice TableAdviceWire `json:"advice"`
}

// parseKind maps a wire kind to a schema.ColumnKind; empty defaults to int
// (the kind only matters to the storage engine, not the cost model).
func parseKind(k string) (schema.ColumnKind, error) {
	switch strings.ToLower(k) {
	case "", "int":
		return schema.KindInt, nil
	case "decimal":
		return schema.KindDecimal, nil
	case "date":
		return schema.KindDate, nil
	case "char":
		return schema.KindChar, nil
	case "varchar":
		return schema.KindVarchar, nil
	default:
		return 0, fmt.Errorf("advisor: unknown column kind %q", k)
	}
}

// Materialize turns the request into a validated schema.Benchmark.
func (r AdviseRequest) Materialize() (*schema.Benchmark, error) {
	if r.Benchmark != "" {
		if len(r.Tables) > 0 || len(r.Queries) > 0 {
			return nil, fmt.Errorf("advisor: benchmark shorthand excludes explicit tables/queries")
		}
		b, err := schema.BenchmarkByName(r.Benchmark, r.ScaleFactor)
		if err != nil {
			return nil, fmt.Errorf("advisor: %w", err)
		}
		return b, nil
	}
	if len(r.Tables) == 0 {
		return nil, fmt.Errorf("advisor: request has no tables")
	}
	if r.ScaleFactor != 0 {
		// sf only scales the built-in benchmarks; silently ignoring it on
		// explicit tables would advise a different workload than the
		// client thinks they described.
		return nil, fmt.Errorf("advisor: sf applies only to the benchmark shorthand, not explicit tables")
	}
	b := &schema.Benchmark{Name: "custom"}
	for _, ts := range r.Tables {
		cols := make([]schema.Column, len(ts.Columns))
		for i, cs := range ts.Columns {
			kind, err := parseKind(cs.Kind)
			if err != nil {
				return nil, fmt.Errorf("%w (table %s column %s)", err, ts.Name, cs.Name)
			}
			cols[i] = schema.Column{Name: cs.Name, Kind: kind, Size: cs.Size}
		}
		t, err := schema.NewTable(ts.Name, ts.Rows, cols)
		if err != nil {
			return nil, err
		}
		if b.Table(ts.Name) != nil {
			return nil, fmt.Errorf("advisor: duplicate table %q", ts.Name)
		}
		b.Tables = append(b.Tables, t)
	}
	for i, qs := range r.Queries {
		id := qs.ID
		if id == "" {
			id = fmt.Sprintf("q%d", i+1)
		}
		if !validWeight(qs.Weight) {
			return nil, fmt.Errorf("advisor: query %s has invalid weight %v", id, qs.Weight)
		}
		q := schema.Query{ID: id, Weight: qs.Weight, Refs: make(map[string]attrset.Set, len(qs.Tables))}
		for tname, colNames := range qs.Tables {
			t := b.Table(tname)
			if t == nil {
				return nil, fmt.Errorf("advisor: query %s references unknown table %q", id, tname)
			}
			attrs, err := resolveAttrs(t, colNames)
			if err != nil {
				return nil, fmt.Errorf("advisor: query %s: %w", id, err)
			}
			q.Refs[tname] = attrs
		}
		b.Workload.Queries = append(b.Workload.Queries, q)
	}
	if err := b.Validate(); err != nil {
		return nil, err
	}
	return b, nil
}

// resolveAttrs maps column names to an attribute set.
func resolveAttrs(t *schema.Table, names []string) (attrset.Set, error) {
	var s attrset.Set
	if len(names) == 0 {
		return 0, fmt.Errorf("references no columns of %s", t.Name)
	}
	for _, n := range names {
		i := t.AttrIndex(n)
		if i < 0 {
			return 0, fmt.Errorf("table %s has no column %q", t.Name, n)
		}
		s = s.Add(i)
	}
	return s, nil
}

// layoutNames renders a layout's canonical partitions as column names.
func layoutNames(p partition.Partitioning) [][]string {
	layout := make([][]string, 0, p.NumParts())
	for _, part := range p.Canonical().Parts {
		layout = append(layout, p.Table.AttrNames(part))
	}
	return layout
}

// toQueryWire renders one query's measured execution for the wire.
func toQueryWire(q replay.QueryReplay) QueryReplayWire {
	return QueryReplayWire{
		ID:               q.ID,
		Weight:           q.Weight,
		Seeks:            q.Stats.Seeks,
		BytesRead:        q.Stats.BytesRead,
		CacheLines:       q.Stats.CacheLines,
		ReconJoins:       q.Stats.ReconJoins,
		Checksum:         fmt.Sprintf("%016x", q.Stats.Checksum),
		MeasuredSeconds:  q.MeasuredSeconds,
		PredictedSeconds: q.PredictedSeconds,
	}
}

// toReplayWire renders a report's totals (its embedded TableReplay) for the
// wire.
func toReplayWire(r *replay.OperatorReplay, fp Fingerprint, cached bool) TableReplayWire {
	qs := make([]QueryReplayWire, len(r.Queries))
	for i, q := range r.Queries {
		qs[i] = toQueryWire(q)
	}
	return TableReplayWire{
		Table:            r.Table,
		Algorithm:        r.Algorithm,
		Layout:           layoutNames(r.Layout),
		Model:            r.Model,
		RowsReplayed:     r.RowsReplayed,
		RowsFull:         r.RowsFull,
		MeasuredSeconds:  r.MeasuredTotal,
		PredictedSeconds: r.PredictedTotal,
		Exact:            r.Exact(),
		MaxAbsDelta:      r.MaxAbsDelta(),
		BytesRead:        r.BytesRead,
		Seeks:            r.Seeks,
		ReconJoins:       r.ReconJoins,
		Queries:          qs,
		Fingerprint:      fp.String(),
		Cached:           cached,
	}
}

// toExecWire renders an executed-pipeline report for the wire.
func toExecWire(r *replay.OperatorReplay, fp Fingerprint, cached bool) TableExecWire {
	ps := make([]PipelineWire, len(r.Queries))
	for i, q := range r.Queries {
		ps[i] = PipelineWire{
			QueryReplayWire: toQueryWire(q),
			Plan:            r.Plans[i],
			ResultRows:      r.ResultRows[i],
			Operators:       r.Ops[i],
		}
	}
	return TableExecWire{
		Table:            r.Table,
		Algorithm:        r.Algorithm,
		Layout:           layoutNames(r.Layout),
		Model:            r.Model,
		Selection:        r.Selection,
		ExecMode:         r.ExecMode,
		RowsReplayed:     r.RowsReplayed,
		RowsFull:         r.RowsFull,
		MeasuredSeconds:  r.MeasuredTotal,
		PredictedSeconds: r.PredictedTotal,
		Exact:            r.Exact(),
		MaxAbsDelta:      r.MaxAbsDelta(),
		BytesRead:        r.BytesRead,
		Seeks:            r.Seeks,
		ReconJoins:       r.ReconJoins,
		Pipelines:        ps,
		Fingerprint:      fp.String(),
		Cached:           cached,
	}
}

// toWire renders advice for the wire.
func toWire(a TableAdvice, fp Fingerprint, cached bool) TableAdviceWire {
	return TableAdviceWire{
		Table:                 a.Table.Name,
		Algorithm:             a.Algorithm,
		Layout:                layoutNames(a.Layout),
		Cost:                  a.Cost,
		RowCost:               a.RowCost,
		ColumnCost:            a.ColumnCost,
		ImprovementOverRow:    a.ImprovementOverRow(),
		ImprovementOverColumn: a.ImprovementOverColumn(),
		PerAlgorithm:          a.PerAlgorithm,
		Fingerprint:           fp.String(),
		Cached:                cached,
	}
}
