package replay

import (
	"fmt"
	"strings"

	"knives/internal/operator"
	"knives/internal/partition"
	"knives/internal/schema"
	"knives/internal/storage"
)

// Selection is the σ an operator replay pushes into every query: accept
// rows whose little-endian u32 column Attr (an int or date column) is
// strictly below Bound — operator.Pred, the executor's one selection form.
// The selection attribute joins each query's referenced set, exactly as a
// WHERE clause would, and the common-granularity rule still reads every
// referenced partition in full — so the PREDICTED cost of a selective query
// is the full-scan cost of (query attrs ∪ {Attr}), and the measurement must
// equal it.
type Selection = operator.Pred

// OperatorReplay is a TableReplay with the per-query σ/π/⋈ plans and
// per-operator breakdowns its numbers were composed from alongside.
// Queries, Plans, and Ops are index-aligned; query i's root emitted
// Queries[i].Stats.Tuples rows (the sampled row count without a selection,
// the surviving rows with one).
type OperatorReplay struct {
	TableReplay
	// Plans[i] renders query i's pipeline bottom-up.
	Plans []string
	// Ops[i] is query i's per-operator accounting in plan order.
	Ops [][]operator.OpStats
	// Selection renders the pushed-down predicate; empty without one.
	Selection string
	// ExecMode echoes Config.ExecMode's label ("row" unless the request
	// said "vector"); it names no code path.
	ExecMode string
	// ExecSeconds is the wall-clock time the workload's one lockstep group
	// spent executing, all queries together: the group shares σ and column
	// folds, so no query has a time of its own. A telemetry signal, never a
	// verdict input (verdicts compare simulated measurements).
	ExecSeconds float64
	// FillRatios[i] are query i's per-batch fill ratios.
	FillRatios [][]float64
}

// Operators materializes the layout (sampled, like Layout) and replays the
// workload by building and running one operator pipeline per query over an
// epoch snapshot. The pipeline's cursors keep the cost model's accounting
// and summation order, so every measured quantity equals the model's
// prediction at zero tolerance — composed from per-operator terms. With a
// non-nil sel, every plan gains a σ pushed onto the partition scan holding
// sel.Attr.
func Operators(tw schema.TableWorkload, layout partition.Partitioning, algorithm string, cfg Config, sel *Selection) (*OperatorReplay, error) {
	return run(tw, layout, nil, algorithm, cfg, sel)
}

// OperatorsOn is Operators over an ALREADY-MATERIALIZED engine that may be
// shared with concurrent executions: e must hold exactly what Operators
// would materialize for layout under cfg (same table by value, sampled rows,
// partitions — a mismatch is an error, never a silent wrong answer), is only
// ever read (every pipeline keeps its state in cursors on one snapshot, and
// the line granularity travels in the cursors' device), and stays open — the
// caller owns it. A nil e materializes privately, which is Operators. The
// report is the one Operators returns, field for field, wall clock aside.
func OperatorsOn(tw schema.TableWorkload, layout partition.Partitioning, e *storage.Engine, algorithm string, cfg Config, sel *Selection) (*OperatorReplay, error) {
	return run(tw, layout, e, algorithm, cfg, sel)
}

// String renders the TableReplay summary with each query's plan and
// per-operator accounting underneath.
func (r *OperatorReplay) String() string {
	var b strings.Builder
	b.WriteString(r.TableReplay.String())
	if r.Selection != "" {
		fmt.Fprintf(&b, "  selection: %s\n", r.Selection)
	}
	for i, q := range r.Queries {
		fmt.Fprintf(&b, "  %s: %s -> %d rows\n", q.ID, r.Plans[i], q.Stats.Tuples)
		for _, op := range r.Ops[i] {
			fmt.Fprintf(&b, "    %-28s in=%-8d out=%-8d seeks=%-6d bytes=%-10d joins=%-6d sim=%.6e\n",
				op.Name, op.RowsIn, op.RowsOut, op.Seeks, op.BytesRead, op.ReconJoins, op.SimTime)
		}
	}
	return b.String()
}
