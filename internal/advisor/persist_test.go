package advisor

import (
	"bytes"
	"errors"
	"testing"

	"knives/internal/attrset"
	"knives/internal/cost"
	"knives/internal/faultinject"
	"knives/internal/schema"
	"knives/internal/statestore"
	"knives/internal/vfs"
)

func durableStore(t *testing.T, dir string, window int) *statestore.Durable {
	t.Helper()
	fs, err := vfs.Dir(dir)
	if err != nil {
		t.Fatal(err)
	}
	d, err := statestore.Open(fs, statestore.Options{DriftWindow: window})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// normalized renumbers Order slots 0..n-1 before marshaling: the service's
// export is already sequential, the store's fold keeps raw registration
// slots (with gaps after resets), and the comparison is about content and
// relative order, not slot numbers.
func normalized(states []statestore.TableState) []byte {
	for i := range states {
		states[i].Order = int64(i)
	}
	return statestore.MarshalStates(states)
}

// driveDrift observes single-column batches until a recompute installs.
func driveDrift(t *testing.T, svc *Service, tab *schema.Table) {
	t.Helper()
	for batch := 0; batch < 8; batch++ {
		rep, err := observe(svc, tab, singleColumnBatch())
		if err != nil {
			t.Fatal(err)
		}
		if rep.Recomputed {
			return
		}
	}
	t.Fatal("advice never recomputed under drifted traffic")
}

// The end-to-end durability contract: every tracker mutation the service
// applies — registration, observation, drift recompute, verified migration
// — is journaled, the live store's fold stays bit-equal to the service's
// own export, and a restarted service rebuilds the identical trackers.
func TestServiceStateSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{DriftThreshold: 0.15, DriftWindow: 8}
	cfg.Store = durableStore(t, dir, 8)
	svc, err := OpenService(cfg)
	if err != nil {
		t.Fatal(err)
	}

	tab := wideTable(t)
	if _, _, err := svc.AdviseTable(coAccessWorkload(tab)); err != nil {
		t.Fatal(err)
	}
	metrics, err := schema.NewTable("metrics", 500_000, []schema.Column{
		{Name: "ts", Kind: schema.KindInt, Size: 8},
		{Name: "val", Kind: schema.KindInt, Size: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := svc.AdviseTable(schema.TableWorkload{Table: metrics, Queries: []schema.TableQuery{
		{ID: "m1", Weight: 1, Attrs: attrset.Of(0, 1)},
	}}); err != nil {
		t.Fatal(err)
	}
	driveDrift(t, svc, tab)
	// A verified migration advances the applied layout — the EvApplied path.
	out, _, err := svc.MigrateTable(tab.Name, MigrateOptions{MaxRows: 2_000})
	if err != nil {
		t.Fatal(err)
	}
	if !out.AppliedUpdated {
		t.Fatal("migration did not advance the applied layout")
	}

	// Live equivalence: the store's own fold of the journal matches the
	// service's in-memory trackers bit-for-bit.
	before := normalized(svc.ExportState())
	if !bytes.Equal(before, normalized(cfg.Store.(*statestore.Durable).Export())) {
		t.Fatal("live store fold diverged from service state")
	}
	adviceBefore, err := svc.CurrentAdvice(tab.Name)
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: a fresh store over the same directory recovers (from the
	// snapshot Close wrote plus any WAL tail) and the service rebuilds.
	cfg.Store = durableStore(t, dir, 8)
	svc2, err := OpenService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	if !bytes.Equal(before, normalized(svc2.ExportState())) {
		t.Fatal("recovered service state differs from the pre-restart state")
	}
	names := svc2.TrackedTables()
	if len(names) != 2 || names[0] != "events" || names[1] != "metrics" {
		t.Fatalf("recovered tables = %v", names)
	}
	adviceAfter, err := svc2.CurrentAdvice(tab.Name)
	if err != nil {
		t.Fatal(err)
	}
	// sameParts, not Layout.Equal: the recovered layout binds a rebuilt
	// *schema.Table.
	if !sameParts(adviceBefore.Layout, adviceAfter.Layout) || adviceBefore.Cost != adviceAfter.Cost {
		t.Fatal("recovered advice differs from the tracked advice before restart")
	}
	// The recovered tracker is live: it observes, prices drift, and keeps
	// journaling.
	if _, err := observe(svc2, tab, singleColumnBatch()); err != nil {
		t.Fatal(err)
	}
}

// A daemon restarted under a different pricing model must not resurrect
// trackers whose advice was priced on the old hardware.
func TestServiceModelMismatchDroppedOnRecovery(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Store: durableStore(t, dir, 8), DriftWindow: 8}
	svc, err := OpenService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := svc.AdviseTable(coAccessWorkload(wideTable(t))); err != nil {
		t.Fatal(err)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}

	ssd, err := OpenService(Config{Store: durableStore(t, dir, 8), DriftWindow: 8, Model: cost.NewSSD()})
	if err != nil {
		t.Fatal(err)
	}
	if got := ssd.TrackedTables(); len(got) != 0 {
		t.Fatalf("SSD daemon recovered HDD trackers: %v", got)
	}
	if _, err := observe(ssd, wideTable(t), singleColumnBatch()); !errors.Is(err, ErrNotRegistered) {
		t.Fatalf("observe on a dropped tracker = %v, want ErrNotRegistered", err)
	}
	if err := ssd.Close(); err != nil {
		t.Fatal(err)
	}

	// The drop was journaled: the next recovery (any model) starts empty
	// instead of resurrecting the table.
	st := durableStore(t, dir, 8)
	defer st.Close()
	if got := st.Recovered(); len(got) != 0 {
		t.Fatalf("reset was not journaled; recovered %d tables", len(got))
	}
}

// A journal-append failure must surface as the request's error with
// NOTHING applied — journal and memory agree — and the client's retry
// completes the mutation.
func TestServiceJournalFailureKeepsEquivalence(t *testing.T) {
	dir := t.TempDir()
	base, err := vfs.Dir(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Write 1 is the registration's commit, 2 the first observe batch, 3
	// the second — which fails.
	inj := faultinject.New(base, faultinject.FailNthWrite(3))
	st, err := statestore.Open(inj, statestore.Options{DriftWindow: 8})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{DriftThreshold: 0.15, DriftWindow: 8, Store: st}
	svc, err := OpenService(cfg)
	if err != nil {
		t.Fatal(err)
	}

	tab := wideTable(t)
	if _, _, err := svc.AdviseTable(coAccessWorkload(tab)); err != nil {
		t.Fatal(err)
	}
	if _, err := observe(svc, tab, singleColumnBatch()); err != nil {
		t.Fatal(err)
	}
	if _, err := observe(svc, tab, singleColumnBatch()); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("observe over a failed journal append = %v, want the injected error", err)
	}
	// The failed batch joined neither the journal nor the log.
	if !bytes.Equal(normalized(svc.ExportState()), normalized(st.Export())) {
		t.Fatal("failed append left service and journal disagreeing")
	}
	// The retry lands it (the store self-repairs its torn tail first).
	if _, err := observe(svc, tab, singleColumnBatch()); err != nil {
		t.Fatal(err)
	}
	final := normalized(svc.ExportState())
	if !bytes.Equal(final, normalized(st.Export())) {
		t.Fatal("retried append left service and journal disagreeing")
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}

	svc2, err := OpenService(Config{DriftThreshold: 0.15, DriftWindow: 8, Store: durableStore(t, dir, 8)})
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	if !bytes.Equal(final, normalized(svc2.ExportState())) {
		t.Fatal("restart after a repaired fault diverged")
	}
}

// A crash mid-journal leaves a recoverable directory, and the restarted
// service agrees with whatever the store's fold recovered.
func TestServiceCrashMidJournalRecovers(t *testing.T) {
	dir := t.TempDir()
	base, err := vfs.Dir(dir)
	if err != nil {
		t.Fatal(err)
	}
	inj := faultinject.New(base, faultinject.CrashAtWrite(4, 7))
	st, err := statestore.Open(inj, statestore.Options{DriftWindow: 8})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := OpenService(Config{DriftThreshold: 0.15, DriftWindow: 8, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	tab := wideTable(t)
	if _, _, err := svc.AdviseTable(coAccessWorkload(tab)); err != nil {
		t.Fatal(err)
	}
	var crashed bool
	for i := 0; i < 8; i++ {
		if _, err := observe(svc, tab, singleColumnBatch()); errors.Is(err, faultinject.ErrCrashed) {
			crashed = true
			break
		}
	}
	if !crashed {
		t.Fatal("crash point never fired")
	}

	st2 := durableStore(t, dir, 8)
	svc2, err := OpenService(Config{DriftThreshold: 0.15, DriftWindow: 8, Store: st2})
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	if !bytes.Equal(normalized(svc2.ExportState()), normalized(st2.Export())) {
		t.Fatal("recovered service disagrees with the recovered fold")
	}
	if got := svc2.TrackedTables(); len(got) != 1 || got[0] != "events" {
		t.Fatalf("recovered tables = %v, want the registration to survive the crash", got)
	}
}
