package statestore

import "sort"

// TableState is the durable state of one tracked table: what EvAdviseCommit
// through EvReset fold to, and what a restarted daemon rebuilds its drift
// tracker from. Field-for-field it mirrors the tracker's own durable
// fields; the caches and the pricing-model object are rebuilt, not stored.
type TableState struct {
	Table    TableRec
	ModelKey string
	// Log is the observation window (registration queries plus observed
	// batches, trimmed to the drift window).
	Log []QueryRec
	// Advice is what the service currently advises (moved by recomputes);
	// Applied is what the client's store physically holds (moved only by
	// verified migrations).
	Advice  AdviceRec
	Applied AdviceRec
	// RegFP keys the workload the tracker covers; AppliedFP the workload
	// the applied layout was advised for.
	RegFP     [FPSize]byte
	AppliedFP [FPSize]byte
	// Observed, Recomputes, AdvObserved are the tracker's counters.
	Observed    int64
	Recomputes  int64
	AdvObserved int64
	// Order is the registration order, oldest first — the FIFO eviction
	// order the service preserves across restarts.
	Order int64
}

// state folds an event stream into per-table durable state. It is the
// single implementation behind both the live append path (Durable folds
// every appended event so snapshots need no help from the advisor) and
// recovery (Open replays the snapshot + WAL through the same fold).
type state struct {
	window    int // drift window: max retained log length; <= 0 keeps all
	tables    map[string]*TableState
	nextOrder int64
	// skipped counts events for tables the fold does not know — legal
	// only in the eviction race (an observe journaled just after its
	// tracker's reset), where the live mutation landed on an orphaned,
	// unreachable tracker, so dropping it preserves equivalence.
	skipped int64
}

func newState(window int) *state {
	return &state{window: window, tables: make(map[string]*TableState)}
}

// trimLog drops the oldest log entries beyond the window — the tracker's
// rule, verbatim, including the slide in place: a fold's log is private
// (apply copies what it is given, export copies what it hands out).
func trimLog(log []QueryRec, window int) []QueryRec {
	if window > 0 && len(log) > window {
		return log[:copy(log, log[len(log)-window:])]
	}
	return log
}

// apply folds one event. It mirrors the tracker mutations exactly: see
// advisor's newTracker/setAdvice (EvAdviseCommit), observeLocked
// (EvObserve), the recompute install (EvRecompute), and MarkApplied
// (EvApplied).
func (st *state) apply(ev Event) {
	switch ev.Type {
	case EvAdviseCommit:
		ts, ok := st.tables[ev.Table]
		if !ok {
			ts = &TableState{Order: st.nextOrder}
			st.nextOrder++
			st.tables[ev.Table] = ts
		}
		// Re-registration keeps the original Order slot, like the
		// service's trackerOrder.
		ts.Table = ev.Schema
		ts.ModelKey = ev.ModelKey
		ts.Log = trimLog(append([]QueryRec(nil), ev.Queries...), st.window)
		ts.Advice = ev.Advice
		ts.Applied = ev.Advice
		ts.RegFP = ev.FP
		ts.AppliedFP = ev.FP
		ts.Observed = 0
		ts.Recomputes = 0
		ts.AdvObserved = 0
	case EvObserve:
		ts, ok := st.tables[ev.Table]
		if !ok {
			st.skipped++
			return
		}
		ts.Log = trimLog(append(ts.Log, ev.Queries...), st.window)
		ts.Observed += int64(len(ev.Queries))
	case EvRecompute:
		ts, ok := st.tables[ev.Table]
		if !ok {
			st.skipped++
			return
		}
		ts.Advice = ev.Advice
		ts.RegFP = ev.FP
		ts.AdvObserved = ev.AdvObserved
		ts.Recomputes++
	case EvApplied:
		ts, ok := st.tables[ev.Table]
		if !ok {
			st.skipped++
			return
		}
		if ts.RegFP == ev.FP {
			ts.Applied = ts.Advice
			ts.AppliedFP = ts.RegFP
		}
	case EvReset:
		delete(st.tables, ev.Table)
	}
}

// export returns deep copies of every table's state, registration order
// first — the shape trackers are rebuilt in, and the shape equivalence
// tests compare bit-for-bit.
func (st *state) export() []TableState {
	out := make([]TableState, 0, len(st.tables))
	for _, ts := range st.tables {
		cp := *ts
		cp.Log = append([]QueryRec(nil), ts.Log...)
		cp.Advice = copyAdvice(ts.Advice)
		cp.Applied = copyAdvice(ts.Applied)
		cp.Table = copyTable(ts.Table)
		out = append(out, cp)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Order < out[j].Order })
	return out
}

func copyAdvice(a AdviceRec) AdviceRec {
	a.Parts = append([]uint64(nil), a.Parts...)
	a.PerAlgorithm = append([]AlgoCost(nil), a.PerAlgorithm...)
	return a
}

func copyTable(t TableRec) TableRec {
	t.Columns = append([]ColumnRec(nil), t.Columns...)
	return t
}

// seed loads a snapshot's exported state back into the fold.
func (st *state) seed(tables []TableState, nextOrder int64) {
	for i := range tables {
		ts := tables[i]
		cp := ts
		st.tables[ts.Table.Name] = &cp
	}
	st.nextOrder = nextOrder
}

// Oracle folds an event stream from scratch under the given drift window —
// the uninterrupted reference a crash-recovery run must match bit-for-bit.
func Oracle(events []Event, window int) []TableState {
	st := newState(window)
	for _, ev := range events {
		st.apply(ev)
	}
	return st.export()
}

// encodeState serializes one table's state (used by snapshots and by the
// bit-equality comparisons in tests).
func encodeState(e *enc, ts TableState) {
	encodeTable(e, ts.Table)
	e.str(ts.ModelKey)
	encodeQueries(e, ts.Log)
	encodeAdvice(e, ts.Advice)
	encodeAdvice(e, ts.Applied)
	e.b = append(e.b, ts.RegFP[:]...)
	e.b = append(e.b, ts.AppliedFP[:]...)
	e.i64(ts.Observed)
	e.i64(ts.Recomputes)
	e.i64(ts.AdvObserved)
	e.i64(ts.Order)
}

func decodeState(d *dec) TableState {
	ts := TableState{Table: decodeTable(d)}
	ts.ModelKey = d.str()
	ts.Log = decodeQueries(d)
	ts.Advice = decodeAdvice(d)
	ts.Applied = decodeAdvice(d)
	d.fp(&ts.RegFP)
	d.fp(&ts.AppliedFP)
	ts.Observed = d.i64()
	ts.Recomputes = d.i64()
	ts.AdvObserved = d.i64()
	ts.Order = d.i64()
	return ts
}

// MarshalStates serializes table states deterministically — the byte
// string two states must share to count as bit-equal.
func MarshalStates(tables []TableState) []byte {
	e := &enc{}
	e.u64(uint64(len(tables)))
	for _, ts := range tables {
		encodeState(e, ts)
	}
	return e.b
}
