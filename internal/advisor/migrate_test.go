package advisor

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"knives/internal/attrset"
	"knives/internal/partition"
	"knives/internal/schema"
)

// driftService advises the co-access workload and streams single-column
// traffic until the tracker recomputes, returning the service and the
// pre-drift advice.
func driftService(t *testing.T) (*Service, *schema.Table, TableAdvice) {
	t.Helper()
	svc := NewService(Config{DriftThreshold: 0.15, DriftWindow: 8})
	tab := wideTable(t)
	stale, _, err := svc.AdviseTable(coAccessWorkload(tab))
	if err != nil {
		t.Fatal(err)
	}
	recomputed := false
	for batch := 0; batch < 8 && !recomputed; batch++ {
		rep, err := observe(svc, tab, singleColumnBatch())
		if err != nil {
			t.Fatal(err)
		}
		recomputed = rep.Recomputed
	}
	if !recomputed {
		t.Fatal("drift never triggered")
	}
	return svc, tab, stale
}

// singleColumnBatch is the drifted traffic: a and b only ever read alone.
func singleColumnBatch() []schema.TableQuery {
	return []schema.TableQuery{
		{ID: "s1", Weight: 1, Attrs: attrset.Of(0)},
		{ID: "s2", Weight: 1, Attrs: attrset.Of(1)},
	}
}

// sameParts compares layouts possibly bound to different *Table pointers
// over the same schema.
func sameParts(a, b partition.Partitioning) bool {
	ac, bc := a.Canonical().Parts, b.Canonical().Parts
	if len(ac) != len(bc) {
		return false
	}
	for i := range ac {
		if ac[i] != bc[i] {
			return false
		}
	}
	return true
}

// TestMigrateTableClosesDriftLoop is the end-to-end story the subsystem
// exists for: advise, drift, recompute — then /migrate plans the applied ->
// advised transition, executes it on a sampled store with exact cost and
// verification, and advances the applied layout so a second call finds
// nothing to do.
func TestMigrateTableClosesDriftLoop(t *testing.T) {
	svc, tab, stale := driftService(t)
	fresh, err := svc.CurrentAdvice(tab.Name)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Layout.Equal(stale.Layout) {
		t.Fatal("precondition: drift did not move the advice")
	}

	out, cached, err := svc.MigrateTable(tab.Name, MigrateOptions{MaxRows: 2_000})
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Error("first migration served from cache")
	}
	p := out.Plan
	if !sameParts(p.From, stale.Layout) {
		t.Errorf("plan migrates from %s, store holds %s", p.From, stale.Layout)
	}
	if !sameParts(p.To, fresh.Layout) {
		t.Errorf("plan migrates to %s, advice says %s", p.To, fresh.Layout)
	}
	if out.Report == nil {
		t.Fatal("differing layouts did not execute")
	}
	if !out.Report.CostExact() {
		t.Errorf("measured migration cost %.18g != predicted %.18g",
			out.Report.MeasuredSeconds, out.Report.PredictedSeconds)
	}
	if !out.Report.VerifyExact() {
		t.Error("migrated store failed verification against fresh materialization")
	}
	if !p.Viable {
		t.Errorf("single-column traffic on 100-byte columns should amortize fast; refused: %s", p.Reason)
	}
	if !out.AppliedUpdated {
		t.Error("verified viable migration did not advance the applied layout")
	}

	// The loop is closed: the store now matches the advice.
	again, _, err := svc.MigrateTable(tab.Name, MigrateOptions{MaxRows: 2_000})
	if err != nil {
		t.Fatal(err)
	}
	if again.Report != nil || again.Plan.Viable {
		t.Errorf("post-migration migrate still wants to move: %+v", again.Plan)
	}
	if !strings.Contains(again.Plan.Reason, "identical") {
		t.Errorf("post-migration refusal reason = %q", again.Plan.Reason)
	}

	st := svc.Stats()
	if st.Migrations < 2 || st.CachedMigrations < 1 {
		t.Errorf("stats did not count migrations: %+v", st)
	}
}

// TestMigrateTableCachesByFingerprintPair: before the applied layout moves,
// identical requests share one execution; the cache key carries rows, seed,
// and window, so changed knobs re-execute.
func TestMigrateTableCachesByFingerprintPair(t *testing.T) {
	// A service whose drift produced differing layouts but whose migration
	// is REFUSED (huge migration cost vs tiny window) keeps the applied
	// layout in place, so repeated calls hit the same fingerprint pair.
	svc, tab, _ := driftService(t)
	opt := MigrateOptions{MaxRows: 1_000, Window: 1}
	first, cached, err := svc.MigrateTable(tab.Name, opt)
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Fatal("first call cached")
	}
	if first.Plan.Viable {
		t.Fatalf("window=1 plan unexpectedly viable (break-even %d)", first.Plan.BreakEven)
	}
	if first.AppliedUpdated {
		t.Fatal("refused plan advanced the applied layout")
	}
	second, cached, err := svc.MigrateTable(tab.Name, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !cached {
		t.Error("identical refused migration re-executed instead of hitting the cache")
	}
	if second.Plan.Migration.Seconds != first.Plan.Migration.Seconds {
		t.Error("cached outcome differs from the original")
	}
	// A different window is a different question.
	third, cached, err := svc.MigrateTable(tab.Name, MigrateOptions{MaxRows: 1_000, Window: MaxMigrateWindow})
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Error("different window served from cache")
	}
	if !third.Plan.Viable {
		t.Errorf("max-window plan refused: %s", third.Plan.Reason)
	}
	if got := svc.Stats(); got.MigrateHits != 1 {
		t.Errorf("migrate hits = %d, want 1", got.MigrateHits)
	}
}

// TestMigrateTableRekeysOnMixChange: observation batches BELOW the drift
// threshold move the amortization mix without re-keying the advice; a
// cached break-even verdict must not answer for the changed mix.
func TestMigrateTableRekeysOnMixChange(t *testing.T) {
	svc, tab, _ := driftService(t)
	opt := MigrateOptions{MaxRows: 1_000, Window: 1}
	if _, cached, err := svc.MigrateTable(tab.Name, opt); err != nil {
		t.Fatal(err)
	} else if cached {
		t.Fatal("first call cached")
	}
	// A below-threshold batch: the single-column shape the tracker already
	// converged to (no recompute), but at a different weight — so the
	// windowed log (the mix plans amortize over) genuinely changes. (An
	// identical-weight batch would trim to a byte-identical window, and an
	// unchanged mix legitimately stays cached.)
	rep, err := observe(svc, tab, []schema.TableQuery{
		{ID: "s1", Weight: 3, Attrs: attrset.Of(0)},
		{ID: "s2", Weight: 3, Attrs: attrset.Of(1)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Recomputed {
		t.Fatal("precondition: batch unexpectedly crossed the drift threshold")
	}
	if _, cached, err := svc.MigrateTable(tab.Name, opt); err != nil {
		t.Fatal(err)
	} else if cached {
		t.Error("migrate served a cached verdict priced on a superseded mix")
	}
}

// TestMigrateTableValidation covers option limits and unregistered tables.
func TestMigrateTableValidation(t *testing.T) {
	svc := NewService(Config{})
	if _, _, err := svc.MigrateTable("nope", MigrateOptions{}); err == nil {
		t.Error("unregistered table accepted")
	}
	bad := []MigrateOptions{
		{Window: -1},
		{Window: MaxMigrateWindow + 1},
		{MaxRows: -1},
		{MaxRows: MaxReplayRows + 1},
	}
	for _, opt := range bad {
		if _, _, err := svc.MigrateTable("nope", opt); err == nil || !strings.Contains(err.Error(), "invalid migrate") {
			t.Errorf("options %+v not rejected as invalid", opt)
		}
	}
}

// TestDriftEvictsStaleReplayReports is the PR's bugfix regression test: a
// replay report cached before a drift recompute must not be served after
// it — the cached report describes advice the recompute invalidated.
func TestDriftEvictsStaleReplayReports(t *testing.T) {
	svc := NewService(Config{DriftThreshold: 0.15, DriftWindow: 8})
	tab := wideTable(t)
	tw := coAccessWorkload(tab)
	if _, _, err := svc.AdviseTable(tw); err != nil {
		t.Fatal(err)
	}
	opt := ReplayOptions{MaxRows: 1_000}
	if _, _, cached, err := svc.ReplayTable(tw, opt); err != nil {
		t.Fatal(err)
	} else if cached {
		t.Fatal("first replay cached")
	}
	if _, _, cached, err := svc.ReplayTable(tw, opt); err != nil {
		t.Fatal(err)
	} else if !cached {
		t.Fatal("second replay not cached (cache broken; eviction test would be vacuous)")
	}

	recomputed := false
	for batch := 0; batch < 8 && !recomputed; batch++ {
		rep, err := observe(svc, tab, singleColumnBatch())
		if err != nil {
			t.Fatal(err)
		}
		recomputed = rep.Recomputed
	}
	if !recomputed {
		t.Fatal("drift never triggered")
	}

	// The drift recompute invalidated the advice the cached report was
	// built on; a post-drift replay of the same workload must re-execute.
	if _, _, cached, err := svc.ReplayTable(tw, opt); err != nil {
		t.Fatal(err)
	} else if cached {
		t.Error("post-drift replay served a stale layout's report from cache")
	}
}

// TestMigrateEndpoint exercises POST /migrate over the wire: 404 before
// registration, 400 on bad options, and a full drift-then-migrate flow.
func TestMigrateEndpoint(t *testing.T) {
	svc, tab, _ := driftService(t)
	ts := httptest.NewServer(NewServer(svc))
	defer ts.Close()
	c := NewClient(ts.URL)
	ctx := context.Background()

	if _, err := c.Migrate(ctx, MigrateRequest{Table: "ghost"}); err == nil || !strings.Contains(err.Error(), "404") {
		t.Errorf("unregistered table: err = %v, want 404", err)
	}
	if _, err := c.Migrate(ctx, MigrateRequest{Table: tab.Name, Window: -1}); err == nil || !strings.Contains(err.Error(), "400") {
		t.Errorf("bad window: err = %v, want 400", err)
	}
	// Missing table name.
	resp, err := http.Post(ts.URL+"/migrate", "application/json", bytes.NewReader([]byte(`{}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty request: status %d, want 400", resp.StatusCode)
	}
	// Unknown fields must be rejected like every other endpoint.
	resp, err = http.Post(ts.URL+"/migrate", "application/json", bytes.NewReader([]byte(`{"table":"x","bogus":1}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field: status %d, want 400", resp.StatusCode)
	}

	wire, err := c.Migrate(ctx, MigrateRequest{Table: tab.Name, MaxRows: 2_000})
	if err != nil {
		t.Fatal(err)
	}
	if !wire.Executed || !wire.CostExact || !wire.VerifyExact {
		t.Errorf("migration wire not exact: %+v", wire)
	}
	if !wire.Viable || wire.BreakEven <= 0 {
		t.Errorf("expected a viable plan, got %+v", wire)
	}
	if !wire.AppliedUpdated {
		t.Error("wire does not report the applied layout advancing")
	}
	if wire.Model == "" || len(wire.FromLayout) == 0 || len(wire.ToLayout) == 0 {
		t.Errorf("wire missing layout rendering: %+v", wire)
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(wire); err != nil {
		t.Fatal(err)
	}

	// Converged: second call reports nothing to migrate.
	wire2, err := c.Migrate(ctx, MigrateRequest{Table: tab.Name, MaxRows: 2_000})
	if err != nil {
		t.Fatal(err)
	}
	if wire2.Executed || wire2.Viable {
		t.Errorf("post-migration call still executes: %+v", wire2)
	}
	if !wire2.CostExact || !wire2.VerifyExact {
		t.Error("no-op migration must be trivially exact")
	}
}
