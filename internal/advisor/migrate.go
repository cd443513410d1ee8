package advisor

import (
	"errors"
	"fmt"
	"time"

	"knives/internal/migrate"
	"knives/internal/partition"
)

// The migration endpoint: a drift-triggered client asks the service to
// price, plan, and (when the layouts differ) execute-and-verify the
// transition from the layout its store HOLDS (the tracker's applied
// advice) to the layout the service now ADVISES (moved by drift
// recomputes), amortized over the tracker's observed query mix. This is
// the closing of the drift loop: PR-2's trackers detect the shift and
// recompute advice; the migration engine decides whether acting on it pays
// and proves the transition safe before anyone touches a production store.

// DefaultMigrateCacheCapacity bounds the migration outcome cache. Outcomes
// carry one replay report, the generator's answer per query and the plan,
// the same weight class as replay entries.
const DefaultMigrateCacheCapacity = 256

// MaxMigrateWindow bounds the requestable break-even horizon so a request
// cannot make the planner accept an effectively-never horizon.
const MaxMigrateWindow = 1_000_000_000

// ErrBadMigrate reports migration options the service refuses to execute.
var ErrBadMigrate = errors.New("advisor: invalid migrate request")

// MigrateOptions are the knobs one migration request may turn. The zero
// value uses the service defaults.
type MigrateOptions struct {
	// Window bounds the acceptable break-even horizon in queries; 0 uses
	// the service's configured default.
	Window int64
	// MaxRows and Seed parameterize the sampled verification execution
	// exactly like a replay (same limits).
	MaxRows int64
	Seed    int64
}

// validate enforces the request-side limits (shared with replay where the
// knobs are the same knobs).
func (o MigrateOptions) validate() error {
	if o.Window < 0 || o.Window > MaxMigrateWindow {
		return fmt.Errorf("%w: window %d out of range [0, %d]", ErrBadMigrate, o.Window, MaxMigrateWindow)
	}
	if o.MaxRows < 0 || o.MaxRows > MaxReplayRows {
		return fmt.Errorf("%w: max_rows %d out of range [0, %d]", ErrBadMigrate, o.MaxRows, MaxReplayRows)
	}
	return nil
}

// migrateKey identifies one cached migration outcome: the FINGERPRINT PAIR
// (the workload the applied layout was advised for, the workload the
// current advice covers), the fingerprint of the observed mix the plan is
// amortized over — observation batches below the drift threshold move the
// mix without re-keying the advice, and a break-even verdict priced on an
// older mix must not answer for a newer one — plus every option that
// changes the plan or the executed store.
type migrateKey struct {
	from, to Fingerprint
	mix      Fingerprint
	model    string
	window   int64
	rows     int64
	seed     int64
}

// MigrationOutcome is what one migration request resolves to.
type MigrationOutcome struct {
	Table string
	// FromFP/ToFP are the fingerprint pair the outcome is cached under.
	FromFP, ToFP Fingerprint
	// Plan is the full-scale break-even analysis (Viable=false plans carry
	// the refusal reason).
	Plan *migrate.Plan
	// Report is the sampled execute-and-verify run; nil when the layouts
	// are identical and there is nothing to execute.
	Report *migrate.Report
	// AppliedUpdated reports whether this request moved the tracker's
	// applied layout forward (the store is now considered migrated).
	AppliedUpdated bool
}

// MigrateTable plans — and, when the layouts differ, executes and verifies
// on a sampled store — the migration of a REGISTERED table from its
// applied layout to its currently tracked advice, amortized over the
// tracker's observed mix. Outcomes are cached by fingerprint pair; the
// bool reports whether this call was served from cache. After a verified,
// viable execution (or a no-op transition), the tracker's applied layout
// advances, so a repeated /migrate converges to "nothing to migrate".
func (s *Service) MigrateTable(table string, opt MigrateOptions) (*MigrationOutcome, bool, error) {
	if err := opt.validate(); err != nil {
		return nil, false, err
	}
	t, err := s.tracker(table)
	if err != nil {
		return nil, false, err
	}
	window := opt.Window
	if window == 0 {
		window = s.cfg.MigrateWindow
	}
	// The tracker prices the migration under the model that registered it —
	// a store advised for SSD is planned and verified on the SSD device.
	st := t.MigrationState()
	rcfg, err := replayConfigFor(st.model, ReplayOptions{MaxRows: opt.MaxRows, Seed: opt.Seed})
	if err != nil {
		return nil, false, err
	}

	s.migrations.Add(1)
	key := migrateKey{
		from: st.appliedFP, to: st.currentFP, mix: FingerprintOf(st.tw), model: st.modelKey,
		window: window, rows: rcfg.MaxRows, seed: rcfg.Seed,
	}

	outcome, ran, err := s.migrateEntries.Do(key, func() (*MigrationOutcome, error) {
		t0 := time.Now()
		out, err := s.migrateOnce(table, st, key, rcfg)
		if err == nil {
			s.tm.migrateExec.Since(t0)
		}
		return out, err
	})
	if err != nil {
		return nil, false, err
	}
	if !ran {
		s.migrateHits.Add(1)
	}
	// Advance the applied layout outside the cache so cache hits converge
	// too: the CAS against currentFP refuses if a newer drift recompute or
	// re-registration moved the advice since this outcome was computed. A
	// journal-append failure surfaces as the request's error — the outcome
	// stays cached, so the retry re-attempts exactly this advance.
	out := *outcome
	if out.Report != nil && !out.Report.VerifyExact() {
		s.inexact.Add(1)
	}
	if out.Plan != nil && (out.Report == nil || (out.Plan.Viable && out.Report.Exact())) {
		applied, err := t.MarkApplied(st.currentFP)
		if err != nil {
			return nil, false, err
		}
		out.AppliedUpdated = applied
	}
	return &out, !ran, nil
}

// migrateOnce computes one migration outcome: rebind both layouts onto the
// tracked table, plan at full scale, and execute-and-verify on a sampled
// in-memory store when the layouts differ.
func (s *Service) migrateOnce(table string, st migrationState, key migrateKey, rcfg migrate.Config) (*MigrationOutcome, error) {
	tw := st.tw
	from, err := partition.New(tw.Table, st.applied.Layout.Parts)
	if err != nil {
		return nil, fmt.Errorf("advisor: applied layout: %w", err)
	}
	to, err := partition.New(tw.Table, st.current.Layout.Parts)
	if err != nil {
		return nil, fmt.Errorf("advisor: advised layout: %w", err)
	}
	plan, err := migrate.New(tw, from, to, st.model, key.window)
	if err != nil {
		return nil, err
	}
	plan.FromAlgorithm, plan.ToAlgorithm = st.applied.Algorithm, st.current.Algorithm
	out := &MigrationOutcome{Table: table, FromFP: key.from, ToFP: key.to, Plan: plan}
	if plan.From.Equal(plan.To) {
		// Nothing to move; the outcome is the refusal itself (and the
		// caller advances the applied fingerprint — the store already
		// matches the advice).
		return out, nil
	}
	// Execute even when the plan was refused: a refusal backed by a
	// verified sampled run is an honest refusal, and the execution never
	// touches the client's store — it is a from-scratch sampled twin.
	out.Report, err = migrate.Execute(tw, plan, rcfg)
	if err != nil {
		return nil, err
	}
	return out, nil
}
