package advisor

import (
	"context"
	"fmt"

	"knives/internal/cost"
	"knives/internal/replay"
	"knives/internal/schema"
)

// The exec path answers POST /query: advise the workload (from the
// fingerprint cache), lease the resident store of the advised layout
// (materializing it if no earlier request has), and EXECUTE every
// query as a σ/π/⋈ operator pipeline over an epoch snapshot — returning
// per-operator accounting next to the same zero-tolerance predictions the
// replay path verifies against. /replay runs the same pipelines over a
// private, one-shot store and reports the totals alone; /query keeps the
// store, reports the plan operators the totals decompose into, and can push
// a selection predicate into the scans.

// ExecSelection names a σ pushed into every pipeline of one table's
// execution: keep rows whose little-endian u32 column (an int or date
// column) is strictly below Bound.
type ExecSelection struct {
	Column string
	Bound  uint32
}

// On binds the selection to a table's column. The predicate compares the
// column's first four bytes as a little-endian u32, so anything but an int
// or date column (the engine's u32 encodings) is refused: on a narrower
// column no row could ever match, and on text it would filter on the first
// four characters.
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

// execKey identifies one cached execution: the replay key plus the
// selection (the predicate changes plans, rows out, and per-query pricing).
type execKey struct {
	replayKey
	sel ExecSelection
}

// ExecTable answers one table's advise-lease-execute chain under the
// service's default pricing model. The bool reports whether the call
// answered from cache.
func (s *Service) ExecTable(tw schema.TableWorkload, opt ReplayOptions, sel *ExecSelection) (*replay.OperatorReplay, Fingerprint, bool, error) {
	return s.execTableAs(context.Background(), tw, opt, sel, s.model, s.modelKey)
}

// execTableAs is ExecTable under an explicit pricing model (a wire
// request's resolved ModelSpec, or the service default): replayTableAs with
// a selection in the key, over the leased resident store.
func (s *Service) execTableAs(ctx context.Context, tw schema.TableWorkload, opt ReplayOptions, sel *ExecSelection, m cost.Model, mkey string) (*replay.OperatorReplay, Fingerprint, bool, error) {
	p, err := planExec(tw, opt, sel, m, mkey)
	if err != nil {
		return nil, Fingerprint{}, false, err
	}
	s.queries.Add(1)
	rep, ran, err := s.execEntries.Do(p.key, func() (*replay.OperatorReplay, error) {
		layout, algorithm, err := s.advisedLayout(ctx, p.tw, m, mkey)
		if err != nil {
			return nil, err
		}
		// The store outlives the request: a /query that differs from an
		// earlier one only in its selection scans the table that one
		// materialized. The lease keeps an eviction or a drift drop from
		// closing it under this execution.
		st, err := s.leaseStore(ctx, p, layout)
		if err != nil {
			return nil, err
		}
		defer s.stores.release(st)
		rep, err := replay.OperatorsOn(p.tw, layout, st.engine, algorithm, p.cfg, p.sel)
		if err == nil {
			s.tm.recordExec(rep)
		}
		return rep, err
	})
	if err != nil {
		return nil, p.key.fp, false, err
	}
	if !ran {
		s.queryHits.Add(1)
	}
	if !rep.Exact() {
		s.inexact.Add(1)
	}
	return rep, p.key.fp, !ran, nil
}
