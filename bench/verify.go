package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"

	"knives/internal/advisor"
)

// ack is the last state of a registered table the daemon acknowledged to a
// client: what a restarted daemon must still answer on GET /advice.
type ack struct {
	observed    int64
	fingerprint string
	layout      string // canonical rendering, see layoutKey
}

// acks is the durability ledger, shared by the clients.
type acks struct {
	mu     sync.Mutex
	tables map[string]ack
}

func newAcks() *acks { return &acks{tables: make(map[string]ack)} }

// record keeps the acknowledgement taken at the highest observed count: two
// clients may hear about one table in either order, but the batch applied
// last answers with the largest count and reads the final state.
func (a *acks) record(table string, observed int64, w advisor.TableAdviceWire) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if cur, ok := a.tables[table]; ok && cur.observed > observed {
		return
	}
	a.tables[table] = ack{observed: observed, fingerprint: w.Fingerprint, layout: layoutKey(w.Layout)}
}

func (a *acks) snapshot() map[string]ack {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make(map[string]ack, len(a.tables))
	for k, v := range a.tables {
		out[k] = v
	}
	return out
}

// layoutKey renders a layout independent of part and column order.
func layoutKey(layout [][]string) string {
	parts := make([]string, len(layout))
	for i, p := range layout {
		cols := append([]string(nil), p...)
		sort.Strings(cols)
		parts[i] = strings.Join(cols, ",")
	}
	sort.Strings(parts)
	return strings.Join(parts, "|")
}

// checkPartition reports whether layout holds every column of cols exactly
// once and nothing else.
func checkPartition(layout [][]string, cols []string) error {
	if cols == nil {
		return fmt.Errorf("layout for a table the stream never declared")
	}
	seen := make(map[string]bool, len(cols))
	for _, part := range layout {
		if len(part) == 0 {
			return fmt.Errorf("layout has an empty part")
		}
		for _, c := range part {
			if seen[c] {
				return fmt.Errorf("layout holds column %q twice", c)
			}
			seen[c] = true
		}
	}
	if len(seen) != len(cols) {
		return fmt.Errorf("layout covers %d of %d columns", len(seen), len(cols))
	}
	for _, c := range cols {
		if !seen[c] {
			return fmt.Errorf("layout misses column %q", c)
		}
	}
	return nil
}

// outcome is what verifying one response yields beyond pass/fail: the
// counts the per-layer metrics are built from, and whether a drift cycle
// may move on.
type outcome struct {
	cached     bool
	recomputed bool
	bytesRead  int64 // /query, /replay: page bytes the execution read
	resultRows int64 // /query: rows the pipelines emitted
}

// verifier checks responses against the stream's expectations.
type verifier struct {
	columns map[string][]string
	acks    *acks
}

// check verifies one response. Any error makes the op a failed op.
func (v *verifier) check(class string, status int, body []byte) (outcome, error) {
	var out outcome
	if status != http.StatusOK {
		return out, fmt.Errorf("status %d: %s", status, firstLine(body))
	}
	switch class {
	case clsAdviseMiss, clsAdviseHit, clsDriftAdvise:
		var resp advisor.AdviseResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return out, err
		}
		if len(resp.Advice) != 1 {
			return out, fmt.Errorf("%d advice entries, want 1", len(resp.Advice))
		}
		a := resp.Advice[0]
		if err := checkPartition(a.Layout, v.columns[a.Table]); err != nil {
			return out, fmt.Errorf("table %s: %w", a.Table, err)
		}
		out.cached = a.Cached
		v.acks.record(a.Table, 0, a)

	case clsObserve, clsDriftObserve:
		var resp advisor.ObserveResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return out, err
		}
		if resp.Duplicate {
			return out, fmt.Errorf("batch answered as a duplicate; batch ids must be unique")
		}
		if len(resp.Verdicts) == 0 {
			return out, fmt.Errorf("no verdicts")
		}
		for _, vd := range resp.Verdicts {
			// An evicted table answers HTTP 200 with a 404 verdict.
			if vd.Status != http.StatusOK {
				return out, fmt.Errorf("table %s: verdict status %d: %s", vd.Table, vd.Status, vd.Error)
			}
			if err := checkPartition(vd.Advice.Layout, v.columns[vd.Table]); err != nil {
				return out, fmt.Errorf("table %s: %w", vd.Table, err)
			}
			if vd.Drift.Recomputed {
				out.recomputed = true
			}
			v.acks.record(vd.Table, vd.Drift.Observed, vd.Advice)
		}
		if class == clsObserve && out.recomputed {
			return out, fmt.Errorf("steady observation recomputed advice; the stream drifted")
		}

	case clsQueryMiss, clsQueryHit:
		var resp advisor.QueryResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return out, err
		}
		if len(resp.Reports) != 1 {
			return out, fmt.Errorf("%d reports, want 1", len(resp.Reports))
		}
		r := resp.Reports[0]
		if !r.Exact {
			return out, fmt.Errorf("table %s: measured %v != predicted %v (max delta %v)", r.Table, r.MeasuredSeconds, r.PredictedSeconds, r.MaxAbsDelta)
		}
		if err := checkPartition(r.Layout, v.columns[r.Table]); err != nil {
			return out, fmt.Errorf("table %s: %w", r.Table, err)
		}
		var bytes int64
		for _, p := range r.Pipelines {
			if p.ResultRows > r.RowsReplayed {
				return out, fmt.Errorf("query %s: %d result rows from %d", p.ID, p.ResultRows, r.RowsReplayed)
			}
			bytes += p.BytesRead
			out.resultRows += p.ResultRows
		}
		if bytes != r.BytesRead {
			return out, fmt.Errorf("table %s: pipelines read %d bytes, report says %d", r.Table, bytes, r.BytesRead)
		}
		out.bytesRead = r.BytesRead
		out.cached = r.Cached

	case clsReplayMiss:
		var resp advisor.ReplayResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return out, err
		}
		if len(resp.Reports) != 1 {
			return out, fmt.Errorf("%d reports, want 1", len(resp.Reports))
		}
		r := resp.Reports[0]
		if !r.Exact {
			return out, fmt.Errorf("table %s: measured %v != predicted %v", r.Table, r.MeasuredSeconds, r.PredictedSeconds)
		}
		if err := checkPartition(r.Layout, v.columns[r.Table]); err != nil {
			return out, fmt.Errorf("table %s: %w", r.Table, err)
		}
		out.bytesRead = r.BytesRead
		out.cached = r.Cached

	case clsMigrate, clsMigrateAgain:
		var m advisor.MigrationWire
		if err := json.Unmarshal(body, &m); err != nil {
			return out, err
		}
		for _, l := range [][][]string{m.FromLayout, m.ToLayout} {
			if err := checkPartition(l, v.columns[m.Table]); err != nil {
				return out, fmt.Errorf("table %s: %w", m.Table, err)
			}
		}
		if !m.CostExact || !m.VerifyExact {
			return out, fmt.Errorf("table %s: cost_exact=%v verify_exact=%v", m.Table, m.CostExact, m.VerifyExact)
		}
		out.cached = m.Cached
		if class == clsMigrate {
			if !m.Executed || !m.AppliedUpdated {
				return out, fmt.Errorf("table %s: executed=%v applied_updated=%v, want an applied migration", m.Table, m.Executed, m.AppliedUpdated)
			}
		} else if !m.Cached && m.Executed {
			return out, fmt.Errorf("table %s: repeated migration executed again", m.Table)
		}

	default:
		return out, fmt.Errorf("unknown op class %q", class)
	}
	return out, checkCached(class, out.cached)
}
