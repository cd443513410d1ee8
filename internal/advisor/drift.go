package advisor

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"

	"knives/internal/algo"
	"knives/internal/algo/o2p"
	"knives/internal/attrset"
	"knives/internal/cost"
	"knives/internal/schema"
	"knives/internal/statestore"
)

// ErrStaleSchema reports that an observation referenced attributes outside
// the table's current schema — typically because the table was re-advised
// with a different shape after the client resolved its column names. The
// client's remedy is to re-advise, not to retry.
var ErrStaleSchema = errors.New("advisor: observed attrs outside current table schema")

// ErrBadObservation reports a malformed observed query (no attributes, or
// a weight that is negative, NaN or above MaxWeight) — a client bug no
// amount of re-advising fixes.
var ErrBadObservation = errors.New("advisor: malformed observed query")

// Tracker watches the live query stream of one registered table and decides
// when the advice served for it has gone stale — the paper's Section 6.3
// drift scenario made operational. It keeps the observed query log, trimmed
// to the window, and after every observation batch compares the advised
// layout against an O2P shadow layout: O2P is the portfolio's online
// algorithm, and it tracks the stream the way an online system would. When
// the advised layout prices the retained log more than Threshold worse
// (relatively) than the shadow does, the advice has drifted and is
// recomputed from the log.
//
// The shadow is O2P run over the window's attribute-set summary:
//
//   - one query per distinct attribute set in the retained log,
//   - in order of first appearance,
//   - each weighted by that set's weights summed in log order.
//
// Both layouts are priced over the full retained log, one weighted
// QueryCost per logged query summed in log order — cost.WorkloadCost. A
// window in which no attribute set repeats is its own summary, so there the
// shadow is O2P over the raw log. Everything else — recomputes,
// fingerprints, the journal, snapshots, recovery and migration mixes —
// reads the raw log; the summary exists only inside one drift check.
type Tracker struct {
	mu sync.Mutex

	table *schema.Table
	model cost.Model
	// modelKey is the cache key of model, so recomputed advice lands in
	// the service cache under the device that priced it.
	modelKey  string
	threshold float64
	window    int // max retained log length; <= 0 keeps everything

	log    []schema.TableQuery
	advice TableAdvice

	observed    int64 // queries observed since registration
	recomputes  int64 // drift-triggered advice recomputations
	gen         int64 // bumped by setAdvice; guards recompute installs
	advObserved int64 // observed count the installed advice was computed at
	// regFP fingerprints the workload the tracker was registered with, so
	// re-advising the identical workload can be recognized and preserve
	// the accumulated observation state instead of resetting it.
	regFP Fingerprint
	// applied is the layout the client's STORE is assumed to hold: the
	// advice of the registration, untouched by drift recomputes (drift
	// changes what the service would advise, not what the store physically
	// is) until a migration verifies and marks the new layout applied.
	applied   TableAdvice
	appliedFP Fingerprint

	// jn journals every durable mutation before it applies, under the same
	// t.mu that orders it; nil when the service's store does not journal.
	// gen is deliberately NOT journaled: it guards in-flight recompute
	// installs, and a restart has no in-flight recomputes.
	jn *journal
}

// DefaultDriftThreshold is the relative cost divergence that invalidates
// cached advice: the advised layout pricing the live workload 15% worse
// than the O2P shadow layout.
const DefaultDriftThreshold = 0.15

// DefaultDriftWindow is how many observed queries a tracker retains when
// the config does not say. It must be finite: a daemon under steady
// /observe traffic with an unbounded log would grow memory without limit
// and re-price an ever-longer workload on every batch.
const DefaultDriftWindow = 256

// newTracker seeds a tracker with the workload the advice was computed for.
func newTracker(tw schema.TableWorkload, advice TableAdvice, m cost.Model, mkey string, threshold float64, window int, fp Fingerprint, jn *journal) *Tracker {
	if !(threshold > 0) { // negated compare also catches NaN
		threshold = DefaultDriftThreshold
	}
	t := &Tracker{
		table:     tw.Table,
		model:     m,
		modelKey:  mkey,
		threshold: threshold,
		window:    window,
		log:       append([]schema.TableQuery(nil), tw.Queries...),
		advice:    advice,
		regFP:     fp,
		applied:   advice,
		appliedFP: fp,
		jn:        jn,
	}
	t.trim()
	return t
}

// trim drops the oldest log entries beyond the window by sliding the rest
// down in place: the log never aliases anything handed out — every reader
// copies under mu — so steady-state ingest reuses one backing array.
// Caller holds mu.
func (t *Tracker) trim() {
	if t.window > 0 && len(t.log) > t.window {
		n := copy(t.log, t.log[len(t.log)-t.window:])
		t.log = t.log[:n]
	}
}

// recomputedAdvice is what a drift-triggered recompute hands back to the
// service for caching: the fresh advice PAIRED with the log snapshot it was
// computed from, the fingerprint the tracker covered before the install
// (whose replay reports the recompute invalidated), and the cache key of
// the model that priced it — all captured under the install's critical
// section, so a concurrent re-registration with a different model can never
// mispair them.
type recomputedAdvice struct {
	advice   TableAdvice
	snapshot schema.TableWorkload
	prevFP   Fingerprint
	modelKey string
}

// DriftReport describes the tracker's state after an observation batch.
type DriftReport struct {
	Table string `json:"table"`
	// Ratio is the relative excess cost of the advised layout over the O2P
	// shadow layout on the observed workload. Negative means the advised
	// layout still wins.
	Ratio float64 `json:"ratio"`
	// Threshold is the ratio beyond which advice is recomputed.
	Threshold float64 `json:"threshold"`
	// Drifted reports whether this batch pushed the ratio past the
	// threshold.
	Drifted bool `json:"drifted"`
	// Recomputed reports whether the advice was recomputed (drift implies
	// recompute unless the recomputation itself failed).
	Recomputed bool `json:"recomputed"`
	// Observed is the number of queries observed since registration.
	Observed int64 `json:"observed"`
	// Recomputes counts drift-triggered recomputations since registration.
	Recomputes int64 `json:"recomputes"`
}

// validateLocked checks a numeric observation batch against the CURRENT
// table and returns a normalized copy (weight 0 coerced to 1). Validation
// runs inside the lock: the caller may have built attr bitmasks against a
// schema snapshot that a concurrent re-registration has since replaced
// (setAdvice swaps t.table). Out-of-range attrs would price garbage; fail
// cleanly and let the client re-advise instead. Caller holds t.mu.
func (t *Tracker) validateLocked(queries []schema.TableQuery) ([]schema.TableQuery, error) {
	all := t.table.AllAttrs()
	out := make([]schema.TableQuery, 0, len(queries))
	for _, q := range queries {
		if q.Attrs.IsEmpty() {
			return nil, fmt.Errorf(
				"%w: query %s references no attributes", ErrBadObservation, q.ID)
		}
		if !all.ContainsAll(q.Attrs) {
			return nil, fmt.Errorf(
				"%w: query %s references %v of table %s (re-advise)",
				ErrStaleSchema, q.ID, q.Attrs, t.table.Name)
		}
		if !validWeight(q.Weight) {
			return nil, fmt.Errorf(
				"%w: query %s has invalid weight %v", ErrBadObservation, q.ID, q.Weight)
		}
		if q.Weight == 0 {
			q.Weight = 1
		}
		out = append(out, q)
	}
	return out, nil
}

// resolveNamedLocked resolves named observations against the tracker's
// current table and normalizes weights exactly like validateLocked.
// Caller holds t.mu.
func (t *Tracker) resolveNamedLocked(named []ObservedQry) ([]schema.TableQuery, error) {
	queries := make([]schema.TableQuery, 0, len(named))
	for i, oq := range named {
		if len(oq.Attrs) == 0 {
			return nil, fmt.Errorf(
				"%w: observed query %d references no columns", ErrBadObservation, i+1)
		}
		if !validWeight(oq.Weight) {
			return nil, fmt.Errorf(
				"%w: observed query %d has invalid weight %v", ErrBadObservation, i+1, oq.Weight)
		}
		attrs, err := resolveAttrs(t.table, oq.Attrs)
		if err != nil {
			return nil, fmt.Errorf(
				"%w: observed query %d: %v (re-advise)", ErrStaleSchema, i+1, err)
		}
		weight := oq.Weight
		if weight == 0 {
			weight = 1
		}
		queries = append(queries, schema.TableQuery{
			ID:     fmt.Sprintf("obs%d", i+1),
			Weight: weight,
			Attrs:  attrs,
		})
	}
	return queries, nil
}

// ingestLocked applies one validated, already-journaled batch: an append
// and, once the window is full, trim's slide of the retained log — a
// memmove of at most window entries, no allocation in steady state and no
// pricing or search. Caller holds t.mu.
func (t *Tracker) ingestLocked(queries []schema.TableQuery) {
	t.log = append(t.log, queries...)
	t.observed += int64(len(queries))
	t.trim()
}

// driftInput is everything the out-of-lock drift check needs, snapshotted
// under one tracker critical section.
type driftInput struct {
	table   *schema.Table
	model   cost.Model
	advised TableAdvice
	gen     int64
	// rep is the tracker's counters at snapshot time; the check fills in
	// its verdict.
	rep DriftReport
	// pricing is a copy of the window-trimmed log: the workload the drift
	// check prices.
	pricing []schema.TableQuery
}

// driftInputLocked snapshots the drift check's inputs, copying the retained
// log: O(window) under the lock, and the only O(window) work the drift
// check does there. Caller holds t.mu.
func (t *Tracker) driftInputLocked() driftInput {
	return driftInput{
		table:   t.table,
		model:   t.model,
		advised: t.advice,
		gen:     t.gen,
		rep:     t.reportLocked(),
		pricing: append([]schema.TableQuery(nil), t.log...),
	}
}

// reportLocked returns the tracker's counters as an unchanged DriftReport —
// what an empty observation batch answers without journaling or pricing,
// and what the drift check starts from. Caller holds t.mu.
func (t *Tracker) reportLocked() DriftReport {
	return DriftReport{
		Table:      t.table.Name,
		Threshold:  t.threshold,
		Observed:   t.observed,
		Recomputes: t.recomputes,
	}
}

// report is reportLocked under the tracker lock.
func (t *Tracker) report() DriftReport {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.reportLocked()
}

// priceDrift runs the drift check on a snapshot, outside any lock: the O2P
// shadow (see Tracker) and the advised layout are priced over the snapshot,
// and past the threshold a portfolio recompute runs over the current log.
// The recompute re-reads the log under the generation check rather than
// reusing in.pricing, so the advice it installs is paired with the newest
// log a live generation holds. A recompute's per-knife search telemetry
// goes to tm.
//
// On recomputation it returns the fresh advice PAIRED with the log snapshot
// it was computed from (taken under one critical section), so the service
// caches exactly that workload's fingerprint — never a newer advice under
// an older workload's key. The prevFP in the recomputedAdvice is the one the
// tracker covered BEFORE the recompute re-keyed it: the service evicts that
// key's replay reports, which were computed for advice the drift just
// invalidated.
//
// Running outside the tracker lock means a drift-triggered search on a big
// table does not stall concurrent /advice and /observe traffic for that
// table. Checks of successive groups may therefore both recompute; each
// installs the advice for its own snapshot and the later install wins,
// which is at worst one redundant search, never a stale pairing.
func (t *Tracker) priceDrift(ctx context.Context, in driftInput, tm *svcMetrics) (DriftReport, *recomputedAdvice, error) {
	rep := in.rep
	if len(in.pricing) == 0 {
		return rep, nil, nil
	}

	// The shadow search draws from the same process-wide budget as every
	// other kernel entry point, so a burst of /observe traffic cannot
	// oversubscribe the machine — and waits under the request's deadline,
	// so it cannot strand the handler's goroutine on the gate either.
	if err := algo.AcquireSearchSlotCtx(ctx); err != nil {
		return rep, nil, err
	}
	chk := checkWindow(in.model, in.table, in.pricing, in.advised.Layout.Parts)
	algo.ReleaseSearchSlot()
	switch {
	case chk.shadowCost > 0:
		rep.Ratio = (chk.advisedCost - chk.shadowCost) / chk.shadowCost
	case chk.advisedCost > 0:
		// A zero-cost shadow layout against a positive-cost advised layout
		// is infinitely drifted, not "ratio unknown, stay put".
		rep.Ratio = math.Inf(1)
	}
	if rep.Ratio <= rep.Threshold {
		return rep, nil, nil
	}
	rep.Drifted = true

	// Snapshot the log for the recompute. If a re-registration landed
	// since the batch was ingested, the advice this check would compute
	// belongs to a dead generation: report drift, install nothing.
	t.mu.Lock()
	if t.gen != in.gen {
		t.mu.Unlock()
		return rep, nil, nil
	}
	tw := schema.TableWorkload{
		Table:   t.table,
		Queries: append([]schema.TableQuery(nil), t.log...),
	}
	obsAt := t.observed
	t.mu.Unlock()

	fresh, err := adviseTable(ctx, tw, in.model, tm)
	if err != nil {
		return rep, nil, err
	}
	t.mu.Lock()
	// Install only if (a) no re-registration (setAdvice) landed while the
	// lock was released — it may have swapped t.table for a different
	// schema, and pairing advice computed for the old geometry with the
	// new table would index out of range when priced; the generation
	// counter catches this even when the re-registration reuses the same
	// *schema.Table pointer — and (b) no sibling drift check already installed
	// advice computed from a LONGER log: within a generation the observed
	// counter is monotone, so comparing snapshot positions makes the
	// newest-log advice win regardless of which portfolio search finishes
	// last. The (fresh, snapshot) pair returned below stays valid either
	// way: the service caches it under the snapshot's own fingerprint.
	installed := t.gen == in.gen && obsAt >= t.advObserved
	var rec *recomputedAdvice
	if installed {
		snapFP := FingerprintOf(tw)
		// Journal the install before applying it. An install that loses
		// the race is never journaled, so the fold applies EvRecompute
		// unconditionally and still matches: journal order is install
		// order.
		if t.jn != nil {
			ev := statestore.Event{Type: statestore.EvRecompute, Table: t.table.Name,
				Advice: toAdviceRec(fresh), FP: [statestore.FPSize]byte(snapFP), AdvObserved: obsAt}
			if err := t.jn.append(ev); err != nil {
				t.mu.Unlock()
				return rep, nil, err
			}
		}
		t.advice = fresh
		t.advObserved = obsAt
		// The tracker now effectively tracks the observed snapshot: re-key
		// regFP so a client re-advising exactly this workload (the
		// fingerprint GET /advice reports) is recognized as identical and
		// preserves the observation state instead of resetting it. The key
		// it covered until now goes back to the service, which evicts that
		// fingerprint's replay reports — they were computed for the advice
		// this install just invalidated, and a post-drift /replay must not
		// serve a stale layout's report from cache.
		rec = &recomputedAdvice{advice: fresh, snapshot: tw, prevFP: t.regFP, modelKey: t.modelKey}
		t.regFP = snapFP
		t.recomputes++
		rep.Recomputed = true
	}
	rep.Recomputes = t.recomputes
	t.mu.Unlock()
	// When the install lost (a newer registration or sibling install
	// superseded it), report drift without claiming a recompute and hand
	// nothing back to cache.
	return rep, rec, nil
}

// windowCheck is one drift check's pricing: the shadow's parts in the
// order O2P's analysis leaves them, and both layouts' costs over the log.
type windowCheck struct {
	shadow                  []attrset.Set
	shadowCost, advisedCost float64
}

// checkWindow builds the log's attribute-set summary in one pass, runs O2P
// over it, and prices the shadow and the advised layout over the full log.
// Each distinct set's QueryCost is computed once per layout; the weighted
// products are then summed in log order exactly as cost.WorkloadCost sums
// them, so both costs are WorkloadCost's bits.
func checkWindow(m cost.Model, t *schema.Table, log []schema.TableQuery, advised []attrset.Set) windowCheck {
	var summary []schema.TableQuery
	of := make([]int32, len(log)) // summary index of each log entry
	at := make(map[attrset.Set]int32)
	for i, q := range log {
		k, seen := at[q.Attrs]
		if !seen {
			k = int32(len(summary))
			at[q.Attrs] = k
			summary = append(summary, schema.TableQuery{ID: q.ID, Attrs: q.Attrs})
		}
		summary[k].Weight += q.Weight
		of[i] = k
	}
	shadow := o2p.Layout(schema.TableWorkload{Table: t, Queries: summary})

	qc := make([]float64, len(summary))
	price := func(parts []attrset.Set) float64 {
		for k, q := range summary {
			qc[k] = m.QueryCost(t, parts, q.Attrs)
		}
		var total float64
		for i, q := range log {
			wq := q.Weight * qc[of[i]]
			total += wq
		}
		return total
	}
	return windowCheck{shadow: shadow, shadowCost: price(shadow), advisedCost: price(advised)}
}

// Advice returns the tracker's current advice.
func (t *Tracker) Advice() TableAdvice {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.advice
}

// State returns the current advice together with a snapshot of the observed
// workload it is tracked against, consistently under one lock.
func (t *Tracker) State() (TableAdvice, schema.TableWorkload) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.advice, schema.TableWorkload{
		Table:   t.table,
		Queries: append([]schema.TableQuery(nil), t.log...),
	}
}

// setAdvice replaces the tracked advice and its reference workload; used
// when a fresh /advise request re-registers the table. The table pointer is
// replaced too: a re-registration may carry the same table name with a
// different schema or row count, and pricing the new workload against the
// old *schema.Table would at best drift against the wrong geometry and at
// worst index out of range.
// A failed journal append returns before anything mutates: the tracker
// keeps its previous registration, consistent with the journal.
func (t *Tracker) setAdvice(tw schema.TableWorkload, advice TableAdvice, fp Fingerprint, m cost.Model, mkey string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.jn != nil {
		if err := t.jn.append(commitEvent(tw, advice, fp, mkey)); err != nil {
			return err
		}
	}
	t.table = tw.Table
	t.model = m
	t.modelKey = mkey
	t.log = append([]schema.TableQuery(nil), tw.Queries...)
	t.advice = advice
	t.gen++
	// The observed/recompute counters read "since registration", so a new
	// registration starts them over (and advObserved with them).
	t.observed = 0
	t.recomputes = 0
	t.advObserved = 0
	t.regFP = fp
	// A re-registration is a client declaring a (possibly new) store laid
	// out as freshly advised, so the applied layout resets with it.
	t.applied = advice
	t.appliedFP = fp
	t.trim()
	return nil
}

// MigrationState returns, under one lock, everything a migration plan
// needs: the layout the store is assumed to hold (applied), the current
// advice the drift recomputes have moved to, the observed mix snapshot the
// transition is priced against, and both fingerprints.
func (t *Tracker) MigrationState() (st migrationState) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return migrationState{
		applied:   t.applied,
		appliedFP: t.appliedFP,
		current:   t.advice,
		currentFP: t.regFP,
		model:     t.model,
		modelKey:  t.modelKey,
		tw: schema.TableWorkload{
			Table:   t.table,
			Queries: append([]schema.TableQuery(nil), t.log...),
		},
	}
}

// migrationState is everything a migration plan needs, snapshotted under
// one tracker lock: the layout the store is assumed to hold (applied), the
// current advice the drift recomputes have moved to, the observed mix the
// transition is priced against, the model that prices it all, and the
// fingerprints.
type migrationState struct {
	applied, current     TableAdvice
	appliedFP, currentFP Fingerprint
	model                cost.Model
	modelKey             string
	tw                   schema.TableWorkload
}

// MarkApplied records that the store now physically holds the advice the
// tracker currently tracks — called after a migration to it executed and
// verified. The compare-and-set against currentFP makes a stale migration
// (one planned before a newer drift recompute or re-registration moved the
// advice) unable to claim application.
// The event is journaled only when the CAS will succeed — the fold
// replays the same comparison, so a stale fingerprint folds to the same
// no-op either way, without burning a journal record on it.
func (t *Tracker) MarkApplied(currentFP Fingerprint) (bool, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.regFP != currentFP {
		return false, nil
	}
	if t.jn != nil {
		ev := statestore.Event{Type: statestore.EvApplied, Table: t.table.Name,
			FP: [statestore.FPSize]byte(currentFP)}
		if err := t.jn.append(ev); err != nil {
			return false, err
		}
	}
	t.applied = t.advice
	t.appliedFP = t.regFP
	return true, nil
}

// matches reports whether fp identifies a workload the tracker already
// covers: the one it was registered with, or the currently tracked log
// (whose fingerprint GET /advice reports — these differ when the
// registration workload was wider than the drift window, or after
// observations accumulated). Re-advising either must preserve the
// observation state.
// The MODEL key must match too: re-advising the same workload under a
// different device is a new registration — its advice, drift pricing, and
// migration plans all move to the new hardware.
func (t *Tracker) matches(fp Fingerprint, mkey string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.modelKey != mkey {
		return false
	}
	if fp == t.regFP {
		return true
	}
	return fp == FingerprintOf(schema.TableWorkload{Table: t.table, Queries: t.log})
}
