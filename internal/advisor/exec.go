package advisor

import (
	"context"
	"fmt"
	"sync/atomic"

	"knives/internal/cost"
	"knives/internal/replay"
	"knives/internal/schema"
)

// The executed-report chain answers POST /replay and POST /query alike:
// advise the workload (from the fingerprint cache), lease the store of the
// advised layout from the registry (loading it if no earlier request has),
// EXECUTE every query as a σ/π/⋈ operator pipeline over an epoch snapshot,
// hold every measurement against the cost model at zero tolerance, and cache
// the report. /replay is /query without a selection: the two share reports
// and stores, and an endpoint adds only its execRoute and its renderer
// (/replay renders the report's totals, /query the plan operators they
// decompose into).

// ExecSelection names a σ pushed into every pipeline of one table's
// execution: keep rows whose little-endian u32 column (an int or date
// column) is strictly below Bound.
type ExecSelection struct {
	Column string
	Bound  uint32
}

// On binds the selection to a table's column as the executor's one
// predicate form (operator.Pred): the column's first four bytes read as a
// little-endian u32. So anything but an int or date column (the engine's
// u32 encodings) is refused: on text it would filter on the first four
// characters, on a decimal on its low half, and a column narrower than four
// bytes holds no u32 at all.
func (sel ExecSelection) On(t *schema.Table) (*replay.Selection, error) {
	attr := t.AttrIndex(sel.Column)
	if attr < 0 {
		return nil, fmt.Errorf("%w: table %s has no column %q", ErrBadReplay, t.Name, sel.Column)
	}
	c := t.Columns[attr]
	if (c.Kind != schema.KindInt && c.Kind != schema.KindDate) || c.Size < 4 {
		return nil, fmt.Errorf("%w: selection column %s.%s is %s(%d), not a u32 column (int or date)",
			ErrBadReplay, t.Name, c.Name, c.Kind, c.Size)
	}
	return &replay.Selection{Attr: attr, Bound: sel.Bound}, nil
}

// execKey identifies one cached report: the workload fingerprint (which
// already covers schema, weights, and query order), the canonical key of the
// device the execution prices and measures on, the two options that change
// the materialized data, and the selection (the predicate changes plans,
// rows out, and per-query pricing; the zero value is "none").
type execKey struct {
	fp    Fingerprint
	model string
	rows  int64
	seed  int64
	sel   ExecSelection
}

// execRoute is what an endpoint contributes to the chain besides its
// renderer: the request/hit counter pair it owns in /stats, and whether it
// is /query — the endpoint whose loaded stores stay resident (the next
// selection scans the same table; a /replay is one-shot, and retaining its
// store would only fill the budget with tables nobody asks for twice) and
// whose executions feed the knives_query_* and knives_operator_* series.
type execRoute struct {
	requests atomic.Int64 // table reports answered
	hits     atomic.Int64 // ...from the report cache, nothing executed
	query    bool
}

// ReplayTable answers one table's advise-lease-execute-report chain without
// a selection, under the service's default pricing model, and returns the
// report's totals. The bool reports whether the call was answered from
// cache (nothing executed).
func (s *Service) ReplayTable(tw schema.TableWorkload, opt ReplayOptions) (*replay.TableReplay, Fingerprint, bool, error) {
	rep, fp, cached, err := s.execTableAs(context.Background(), &s.replayRoute, tw, opt, nil, s.model, s.modelKey)
	if err != nil {
		return nil, fp, false, err
	}
	return &rep.TableReplay, fp, cached, nil
}

// ExecTable is ReplayTable with an optional selection, returning the whole
// report, per-operator accounting included.
func (s *Service) ExecTable(tw schema.TableWorkload, opt ReplayOptions, sel *ExecSelection) (*replay.OperatorReplay, Fingerprint, bool, error) {
	return s.execTableAs(context.Background(), &s.queryRoute, tw, opt, sel, s.model, s.modelKey)
}

// execTableAs is the chain under an explicit pricing model (a wire request's
// resolved ModelSpec, or the service default). The context bounds the
// embedded advise step's search waits; the load and the execution run to
// completion once started.
func (s *Service) execTableAs(ctx context.Context, rt *execRoute, tw schema.TableWorkload, opt ReplayOptions, sel *ExecSelection, m cost.Model, mkey string) (*replay.OperatorReplay, Fingerprint, bool, error) {
	p, err := planExec(tw, opt, sel, m, mkey)
	if err != nil {
		return nil, Fingerprint{}, false, err
	}
	rt.requests.Add(1)
	rep, ran, err := s.execEntries.Do(p.key, func() (*replay.OperatorReplay, error) {
		layout, algorithm, err := s.advisedLayout(ctx, p.tw, m, mkey)
		if err != nil {
			return nil, err
		}
		// The lease keeps an eviction or a drift drop from closing the
		// store under this execution.
		st, err := s.leaseStore(ctx, p, layout, rt.query)
		if err != nil {
			return nil, err
		}
		defer s.stores.release(st)
		rep, err := replay.OperatorsOn(p.tw, layout, st.engine, algorithm, p.cfg, p.sel)
		if err == nil && rt.query {
			s.tm.recordExec(rep)
		}
		return rep, err
	})
	if err != nil {
		return nil, p.key.fp, false, err
	}
	if !ran {
		rt.hits.Add(1)
	}
	if !rep.Exact() {
		s.inexact.Add(1)
	}
	return rep, p.key.fp, !ran, nil
}
