package advisor

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"knives/internal/attrset"
	"knives/internal/partition"
	"knives/internal/schema"
	"knives/internal/statestore"
)

// journal is the service's journal-before-apply hook: every durable tracker
// mutation appends its event through here BEFORE applying, under the same
// lock that orders the mutation, so the WAL's event order is exactly the
// apply order and a failed append leaves the in-memory state untouched (the
// client retries; nothing was half-done). A nil *journal means the store
// does not journal, and the mutation paths skip event construction
// entirely — the hot path is byte-identical to the pre-durability service.
type journal struct{ store statestore.Store }

func newJournal(st statestore.Store) *journal {
	if st == nil || !st.Journaling() {
		return nil
	}
	return &journal{store: st}
}

// ErrJournal marks a failed journal append. The failed mutation was NOT
// applied — journal and memory still agree on everything acknowledged — so
// retrying the request is always safe, and the WAL self-heals its tail on
// the next append. The HTTP layer maps this to 503 so retrying clients
// ride out transient disk faults.
var ErrJournal = errors.New("advisor: journal write failed")

func (j *journal) append(ev statestore.Event) error {
	if err := j.store.Append(ev); err != nil {
		return fmt.Errorf("%w: %w", ErrJournal, err)
	}
	return nil
}

// contextBatcher is a store that can record the commit an AppendBatch led
// on the request's trace (statestore.Durable).
type contextBatcher interface {
	AppendBatchContext(ctx context.Context, evs []statestore.Event) error
}

// appendBatch journals a whole observe round as one unit of a WAL commit (a
// write and an fsync it may share with concurrent requests' rounds).
// All-or-nothing for the caller: on error none of the events were
// acknowledged and none may be applied.
func (j *journal) appendBatch(ctx context.Context, evs []statestore.Event) error {
	var err error
	if cb, ok := j.store.(contextBatcher); ok {
		err = cb.AppendBatchContext(ctx, evs)
	} else {
		err = j.store.AppendBatch(evs)
	}
	if err != nil {
		return fmt.Errorf("%w: %w", ErrJournal, err)
	}
	return nil
}

// toTableRec flattens a schema for the journal.
func toTableRec(t *schema.Table) statestore.TableRec {
	rec := statestore.TableRec{Name: t.Name, Rows: t.Rows,
		Columns: make([]statestore.ColumnRec, len(t.Columns))}
	for i, c := range t.Columns {
		rec.Columns[i] = statestore.ColumnRec{Name: c.Name, Kind: uint8(c.Kind), Size: int64(c.Size)}
	}
	return rec
}

// fromTableRec rebuilds the schema a recovered tracker prices against,
// through the validating constructor — a journal that decodes cleanly but
// describes an impossible table must fail recovery, not panic later.
func fromTableRec(rec statestore.TableRec) (*schema.Table, error) {
	cols := make([]schema.Column, len(rec.Columns))
	for i, c := range rec.Columns {
		cols[i] = schema.Column{Name: c.Name, Kind: schema.ColumnKind(c.Kind), Size: int(c.Size)}
	}
	return schema.NewTable(rec.Name, rec.Rows, cols)
}

func toQueryRecs(qs []schema.TableQuery) []statestore.QueryRec {
	if len(qs) == 0 {
		return nil
	}
	out := make([]statestore.QueryRec, len(qs))
	for i, q := range qs {
		out[i] = statestore.QueryRec{ID: q.ID, Weight: q.Weight, Attrs: uint64(q.Attrs)}
	}
	return out
}

func fromQueryRecs(rs []statestore.QueryRec) []schema.TableQuery {
	if len(rs) == 0 {
		return nil
	}
	out := make([]schema.TableQuery, len(rs))
	for i, r := range rs {
		out[i] = schema.TableQuery{ID: r.ID, Weight: r.Weight, Attrs: attrset.Set(r.Attrs)}
	}
	return out
}

func toAdviceRec(a TableAdvice) statestore.AdviceRec {
	rec := statestore.AdviceRec{
		Algorithm: a.Algorithm, Cost: a.Cost, RowCost: a.RowCost, ColumnCost: a.ColumnCost,
	}
	if len(a.Layout.Parts) > 0 {
		rec.Parts = make([]uint64, len(a.Layout.Parts))
		for i, p := range a.Layout.Parts {
			rec.Parts[i] = uint64(p)
		}
	}
	for name, c := range a.PerAlgorithm {
		rec.PerAlgorithm = append(rec.PerAlgorithm, statestore.AlgoCost{Name: name, Cost: c})
	}
	sort.Slice(rec.PerAlgorithm, func(i, j int) bool {
		return rec.PerAlgorithm[i].Name < rec.PerAlgorithm[j].Name
	})
	return rec
}

func fromAdviceRec(rec statestore.AdviceRec, t *schema.Table) TableAdvice {
	a := TableAdvice{
		Table: t, Algorithm: rec.Algorithm,
		Cost: rec.Cost, RowCost: rec.RowCost, ColumnCost: rec.ColumnCost,
		Layout: partition.Partitioning{Table: t},
	}
	if len(rec.Parts) > 0 {
		a.Layout.Parts = make([]attrset.Set, len(rec.Parts))
		for i, p := range rec.Parts {
			a.Layout.Parts[i] = attrset.Set(p)
		}
	}
	if len(rec.PerAlgorithm) > 0 {
		a.PerAlgorithm = make(map[string]float64, len(rec.PerAlgorithm))
		for _, ac := range rec.PerAlgorithm {
			a.PerAlgorithm[ac.Name] = ac.Cost
		}
	}
	return a
}

// commitEvent is the EvAdviseCommit for one registration: everything
// needed to rebuild the tracker from scratch.
func commitEvent(tw schema.TableWorkload, advice TableAdvice, fp Fingerprint, mkey string) statestore.Event {
	return statestore.Event{
		Type:     statestore.EvAdviseCommit,
		Table:    tw.Table.Name,
		Schema:   toTableRec(tw.Table),
		ModelKey: mkey,
		Queries:  toQueryRecs(tw.Queries),
		Advice:   toAdviceRec(advice),
		FP:       [statestore.FPSize]byte(fp),
	}
}

// recoverTracker rebuilds one live tracker from the state a store replayed.
// The caller has already checked the model key matches the service's model.
func (s *Service) recoverTracker(ts statestore.TableState) (*Tracker, error) {
	table, err := fromTableRec(ts.Table)
	if err != nil {
		return nil, fmt.Errorf("advisor: recover %s: %w", ts.Table.Name, err)
	}
	t := &Tracker{
		table:       table,
		model:       s.model,
		modelKey:    ts.ModelKey,
		threshold:   s.cfg.DriftThreshold,
		window:      s.cfg.DriftWindow,
		log:         fromQueryRecs(ts.Log),
		advice:      fromAdviceRec(ts.Advice, table),
		observed:    ts.Observed,
		recomputes:  ts.Recomputes,
		advObserved: ts.AdvObserved,
		regFP:       Fingerprint(ts.RegFP),
		applied:     fromAdviceRec(ts.Applied, table),
		appliedFP:   Fingerprint(ts.AppliedFP),
		jn:          s.jn,
	}
	// The store already trimmed the log to ITS window; re-trim covers a
	// service configured with a smaller one than the store it opened.
	t.trim()
	return t, nil
}

// exportState renders the tracker's durable fields in the statestore's
// shape, under the tracker lock.
func (t *Tracker) exportState(order int64) statestore.TableState {
	t.mu.Lock()
	defer t.mu.Unlock()
	return statestore.TableState{
		Table:       toTableRec(t.table),
		ModelKey:    t.modelKey,
		Log:         toQueryRecs(t.log),
		Advice:      toAdviceRec(t.advice),
		Applied:     toAdviceRec(t.applied),
		RegFP:       [statestore.FPSize]byte(t.regFP),
		AppliedFP:   [statestore.FPSize]byte(t.appliedFP),
		Observed:    t.observed,
		Recomputes:  t.recomputes,
		AdvObserved: t.advObserved,
		Order:       order,
	}
}

// ExportState snapshots every tracker's durable state, registration order
// first, with order indices normalized to 0..n-1. This is the live image a
// crash-recovery equivalence test compares (via statestore.MarshalStates)
// against what a restarted store recovers.
func (s *Service) ExportState() []statestore.TableState {
	s.mu.Lock()
	names := s.trackers.Keys()
	live := make([]*Tracker, 0, len(names))
	for _, n := range names {
		t, _ := s.trackers.Get(n)
		live = append(live, t)
	}
	s.mu.Unlock()
	out := make([]statestore.TableState, len(live))
	for i, t := range live {
		out[i] = t.exportState(int64(i))
	}
	return out
}
