package advisor

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"

	"knives/internal/attrset"
	"knives/internal/faultinject"
	"knives/internal/schema"
	"knives/internal/statestore"
	"knives/internal/telemetry"
	"knives/internal/vfs"
)

// register advises the wideTable co-access workload so "events" is tracked.
func register(t *testing.T, svc *Service) *schema.Table {
	t.Helper()
	tab := wideTable(t)
	if _, _, err := svc.AdviseTable(coAccessWorkload(tab)); err != nil {
		t.Fatal(err)
	}
	return tab
}

// trackerLog copies the tracker's observation log under its lock.
func trackerLog(t *testing.T, svc *Service, table string) []schema.TableQuery {
	t.Helper()
	tr, err := svc.tracker(table)
	if err != nil {
		t.Fatal(err)
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return append([]schema.TableQuery(nil), tr.log...)
}

// Weight-0 unification (the bugfix this PR pins): BOTH observation
// endpoints coerce a zero weight — the JSON default for an omitted field —
// to 1 during validation, and both reject negative weights. Before the fix
// the named endpoint coerced and the numeric endpoint silently accepted 0,
// so the same observation priced differently depending on the entry point.
func TestObserveWeightZeroUnifiedAcrossEndpoints(t *testing.T) {
	svc := NewService(Config{DriftWindow: 16})
	register(t, svc)

	if _, err := svc.Observe("events", []schema.TableQuery{
		{ID: "z", Weight: 0, Attrs: attrset.Of(0, 1)},
	}); err != nil {
		t.Fatalf("numeric observe with weight 0: %v", err)
	}
	if _, err := svc.ObserveNamed("events", []ObservedQry{
		{Attrs: []string{"a", "b"}}, // weight omitted = 0 on the wire
	}); err != nil {
		t.Fatalf("named observe with weight 0: %v", err)
	}
	log := trackerLog(t, svc, "events")
	if len(log) < 2 {
		t.Fatalf("log has %d entries, want the 2 observed queries", len(log))
	}
	for _, q := range log[len(log)-2:] {
		if q.Weight != 1 {
			t.Errorf("query %s logged with weight %v, want 0 coerced to 1", q.ID, q.Weight)
		}
	}

	if _, err := svc.Observe("events", []schema.TableQuery{
		{ID: "n", Weight: -1, Attrs: attrset.Of(0)},
	}); !errors.Is(err, ErrBadObservation) {
		t.Errorf("numeric observe with weight -1: err=%v, want ErrBadObservation", err)
	}
	if _, err := svc.ObserveNamed("events", []ObservedQry{
		{Attrs: []string{"a"}, Weight: -1},
	}); !errors.Is(err, ErrBadObservation) {
		t.Errorf("named observe with weight -1: err=%v, want ErrBadObservation", err)
	}
}

// Empty observation batches short-circuit: the tracker's counters come back
// unchanged and NOTHING is journaled — the WAL's last sequence number must
// not move. Before the fix every empty batch appended a no-op EvObserve.
func TestObserveEmptyBatchJournalsNothing(t *testing.T) {
	dir := t.TempDir()
	d := durableStore(t, dir, 16)
	svc, err := OpenService(Config{DriftWindow: 16, Store: d})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	register(t, svc)

	if _, err := svc.Observe("events", singleColumnBatch()); err != nil {
		t.Fatal(err)
	}
	before := d.LastSeq()
	repN, err := svc.Observe("events", nil)
	if err != nil {
		t.Fatal(err)
	}
	repM, err := svc.ObserveNamed("events", []ObservedQry{})
	if err != nil {
		t.Fatal(err)
	}
	if got := d.LastSeq(); got != before {
		t.Errorf("empty batches moved the WAL from seq %d to %d", before, got)
	}
	if repN.Observed != 2 || repM.Observed != 2 {
		t.Errorf("empty-batch reports observed %d/%d, want 2 (unchanged)", repN.Observed, repM.Observed)
	}
	st := svc.Stats()
	if st.ObservedQueries != 2 || st.ObserveBatches != 1 {
		t.Errorf("stats after empty batches: queries=%d batches=%d, want 2/1",
			st.ObservedQueries, st.ObserveBatches)
	}
}

// The /stats observation counters are batch-accurate: they count QUERIES
// ingested, not HTTP requests, and stay exact under concurrent batching.
// Run with -race; the counters are the regression surface.
func TestStatsObservationCountersBatchAccurate(t *testing.T) {
	svc := NewService(Config{DriftThreshold: 100, DriftWindow: 64}) // threshold high: no recompute noise
	register(t, svc)

	const workers = 8
	const batches = 5
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < batches; i++ {
				// Batch sizes 1..5 so request count != query count.
				batch := make([]schema.TableQuery, i+1)
				for j := range batch {
					batch[j] = schema.TableQuery{
						ID: fmt.Sprintf("w%db%dq%d", w, i, j), Weight: 1, Attrs: attrset.Of(0, 1),
					}
				}
				if _, err := svc.Observe("events", batch); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	st := svc.Stats()
	wantQueries := int64(workers * (1 + 2 + 3 + 4 + 5))
	if st.ObservedQueries != wantQueries {
		t.Errorf("ObservedQueries = %d, want %d", st.ObservedQueries, wantQueries)
	}
	if st.ObserveBatches != workers*batches {
		t.Errorf("ObserveBatches = %d, want %d", st.ObserveBatches, workers*batches)
	}
	if st.IngestGroups < 1 || st.IngestGroups > st.ObserveBatches {
		t.Errorf("IngestGroups = %d outside [1, %d]", st.IngestGroups, st.ObserveBatches)
	}
}

// One bad batch in an ingest group fails alone: groupmates for the same and
// other tables commit and report normally.
func TestIngestBadBatchFailsAlone(t *testing.T) {
	svc := NewService(Config{DriftThreshold: 100, DriftWindow: 64})
	register(t, svc)

	const good = 6
	errs := make([]error, good+1)
	var wg sync.WaitGroup
	for i := 0; i < good; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = svc.Observe("events", []schema.TableQuery{
				{ID: fmt.Sprintf("g%d", i), Weight: 1, Attrs: attrset.Of(0)},
			})
		}(i)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Attr index 9 is outside the 4-column schema: ErrStaleSchema.
		_, errs[good] = svc.Observe("events", []schema.TableQuery{
			{ID: "bad", Weight: 1, Attrs: attrset.Of(9)},
		})
	}()
	wg.Wait()
	for i := 0; i < good; i++ {
		if errs[i] != nil {
			t.Errorf("good batch %d: %v", i, errs[i])
		}
	}
	if !errors.Is(errs[good], ErrStaleSchema) {
		t.Errorf("bad batch: err=%v, want ErrStaleSchema", errs[good])
	}
	if st := svc.Stats(); st.ObservedQueries != good {
		t.Errorf("ObservedQueries = %d, want %d (bad batch must not count)", st.ObservedQueries, good)
	}
}

// A failed group commit applies NOTHING: every batch in the group reports
// the retryable ErrJournal, the counters do not move, and the next observe
// (over the self-healed WAL) succeeds.
func TestIngestJournalFailureAppliesNothing(t *testing.T) {
	dir := t.TempDir()
	base, err := vfs.Dir(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Write 1 is the registration's commit; write 2 — the first observe
	// group — fails.
	inj := faultinject.New(base, faultinject.FailNthWrite(2))
	st, err := statestore.Open(inj, statestore.Options{DriftWindow: 16})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := OpenService(Config{DriftThreshold: 100, DriftWindow: 16, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	register(t, svc)

	_, err = svc.Observe("events", singleColumnBatch())
	if !errors.Is(err, ErrJournal) {
		t.Fatalf("observe over failing WAL: err=%v, want ErrJournal", err)
	}
	if got := svc.Stats().ObservedQueries; got != 0 {
		t.Errorf("failed group counted %d observed queries, want 0", got)
	}
	// The log still holds exactly the registration workload's 3 queries:
	// nothing from the failed batch was applied.
	if log := trackerLog(t, svc, "events"); len(log) != 3 {
		t.Errorf("failed group left %d queries in the tracker log, want the 3 registered", len(log))
	}
	if _, err := svc.Observe("events", singleColumnBatch()); err != nil {
		t.Fatalf("retry after journal failure: %v", err)
	}
	if got := svc.Stats().ObservedQueries; got != 2 {
		t.Errorf("after retry ObservedQueries = %d, want 2", got)
	}
}

// ObserveBatch applies repeated entries for the SAME table in slice order
// (the wire contract), while entries fail independently.
func TestObserveBatchSameTableOrderAndIsolation(t *testing.T) {
	svc := NewService(Config{DriftThreshold: 100, DriftWindow: 64})
	register(t, svc)

	outs := svc.ObserveBatch(context.Background(), []TableObservation{
		{Table: "events", Queries: []ObservedQry{{Attrs: []string{"a"}}, {Attrs: []string{"b"}}}},
		{Table: "ghost", Queries: []ObservedQry{{Attrs: []string{"x"}}}},
		{Table: "events", Queries: []ObservedQry{{Attrs: []string{"c"}}}},
	})
	if len(outs) != 3 {
		t.Fatalf("%d outcomes for 3 batches", len(outs))
	}
	if outs[0].Err != nil || outs[2].Err != nil {
		t.Fatalf("events batches errored: %v / %v", outs[0].Err, outs[2].Err)
	}
	if !errors.Is(outs[1].Err, ErrNotRegistered) {
		t.Errorf("ghost batch: err=%v, want ErrNotRegistered", outs[1].Err)
	}
	if outs[0].Rep.Observed != 2 || outs[2].Rep.Observed != 3 {
		t.Errorf("per-batch observed counts %d/%d, want 2 then 3 (slice order)",
			outs[0].Rep.Observed, outs[2].Rep.Observed)
	}
	// The log ends with the 3 observed queries in slice order (after the 3
	// the registration seeded).
	log := trackerLog(t, svc, "events")
	if len(log) != 6 {
		t.Fatalf("log has %d entries, want 3 registered + 3 observed", len(log))
	}
	want := []attrset.Set{attrset.Of(0), attrset.Of(1), attrset.Of(2)}
	for i, q := range log[3:] {
		if q.Attrs != want[i] {
			t.Errorf("observed log[%d].Attrs = %v, want %v (apply order broken)", i, q.Attrs, want[i])
		}
	}
}

// Concurrent duplicate drifted batches: both may recompute, the later
// install wins, and the damage is bounded — at worst ONE redundant
// portfolio search, never stale advice paired under a fresh fingerprint.
func TestObserveConcurrentDuplicateRecompute(t *testing.T) {
	svc := NewService(Config{DriftThreshold: 0.15, DriftWindow: 8})
	register(t, svc)
	searchesBefore := svc.Stats().Searches

	// Eight single-column queries per batch: past the 0.15 threshold on
	// their own, so either batch alone triggers a recompute.
	batch := make([]schema.TableQuery, 8)
	for i := range batch {
		batch[i] = schema.TableQuery{ID: fmt.Sprintf("d%d", i), Weight: 1, Attrs: attrset.Of(i % 2)}
	}
	var wg sync.WaitGroup
	reps := make([]DriftReport, 2)
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			reps[i], errs[i] = svc.Observe("events", batch)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("observe %d: %v", i, err)
		}
	}
	recomputed := 0
	for _, rep := range reps {
		if rep.Recomputed {
			recomputed++
		}
	}
	if recomputed == 0 {
		t.Fatal("neither duplicate batch recomputed")
	}
	st := svc.Stats()
	if st.Recomputes < 1 || st.Recomputes > 2 {
		t.Errorf("Recomputes = %d, want 1 or 2 (at worst one redundant recompute)", st.Recomputes)
	}
	if extra := st.Searches - searchesBefore; extra > 2 {
		t.Errorf("duplicates ran %d searches, want <= 2 (at worst one redundant)", extra)
	}
	// The surviving pairing must be self-consistent: the fingerprint the
	// tracker serves is the fingerprint of the workload it covers, and the
	// cached advice under it answers without a fresh search.
	advice, fp, err := svc.CurrentState("events")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := svc.tracker("events")
	if err != nil {
		t.Fatal(err)
	}
	_, tw := tr.State()
	if FingerprintOf(tw) != fp {
		t.Error("tracked fingerprint does not cover the tracker's own workload")
	}
	searches := svc.Stats().Searches
	cached, hit, err := svc.AdviseTable(tw)
	if err != nil {
		t.Fatal(err)
	}
	if !hit || svc.Stats().Searches != searches {
		t.Error("recomputed advice was not cached under its snapshot fingerprint")
	}
	if cached.Cost != advice.Cost || !cached.Layout.Equal(advice.Layout) {
		t.Error("cached advice disagrees with the tracked advice")
	}
}

// mergeContexts cancels only when EVERY member is done, and stop releases
// the watchers.
func TestMergeContexts(t *testing.T) {
	a, cancelA := context.WithCancel(context.Background())
	b, cancelB := context.WithCancel(context.Background())
	merged, stop := mergeContexts([]context.Context{a, b})
	defer stop()
	cancelA()
	select {
	case <-merged.Done():
		t.Fatal("merged context canceled with one member still live")
	default:
	}
	cancelB()
	<-merged.Done() // must complete: all members are done

	// Single-member merge is the member itself.
	c, cancelC := context.WithCancel(context.Background())
	m, stop1 := mergeContexts([]context.Context{c})
	defer stop1()
	if m != c {
		t.Error("single-member merge should return the member")
	}
	cancelC()
}

// The tracker slides its window in place, so a snapshot that aliased the
// log would be rewritten by the next batch — and a caller scribbling on its
// snapshot would rewrite the log. Every reader copies under t.mu; this pins
// it in both directions, for each reader, across batches that slide.
func TestTrackerSnapshotsSurviveInPlaceTrim(t *testing.T) {
	const window = 16
	svc := NewService(Config{DriftThreshold: 100, DriftWindow: window})
	register(t, svc)
	tr, err := svc.tracker("events")
	if err != nil {
		t.Fatal(err)
	}
	batch := func(round int) []schema.TableQuery {
		qs := make([]schema.TableQuery, 6)
		for i := range qs {
			qs[i] = schema.TableQuery{ID: fmt.Sprintf("r%d-%d", round, i), Weight: float64(1 + i), Attrs: attrset.Of(i%4, (i+1)%4)}
		}
		return qs
	}
	var want []schema.TableQuery // the window, maintained without sharing anything
	for round := 0; round < 8; round++ {
		if _, err := svc.Observe("events", batch(round)); err != nil {
			t.Fatal(err)
		}
		want = append(want, batch(round)...)
		if len(want) > window {
			want = append([]schema.TableQuery(nil), want[len(want)-window:]...)
		}
		_, state := tr.State()
		mig := tr.MigrationState().tw.Queries
		tr.mu.Lock()
		pricing := tr.driftInputLocked().pricing
		tr.mu.Unlock()
		snaps := [][]schema.TableQuery{state.Queries, mig, pricing}
		if round < 3 {
			continue // the window is not full yet; nothing slides
		}
		for _, snap := range snaps {
			if !slices.Equal(snap, want) {
				t.Fatalf("round %d: snapshot %v, want %v", round, snap, want)
			}
		}
		// A later batch slides the log down over its own backing array:
		// the snapshots must not move with it.
		if _, err := svc.Observe("events", batch(100+round)); err != nil {
			t.Fatal(err)
		}
		for _, snap := range snaps {
			if !slices.Equal(snap, want) {
				t.Fatalf("round %d: a snapshot changed under a later batch: %v, want %v", round, snap, want)
			}
		}
		want = append(want, batch(100+round)...)
		want = append([]schema.TableQuery(nil), want[len(want)-window:]...)
		// And scribbling on a snapshot must not reach the log.
		for _, snap := range snaps {
			for i := range snap {
				snap[i] = schema.TableQuery{ID: "scribble", Weight: -1, Attrs: attrset.Of(3)}
			}
		}
		if got := trackerLog(t, svc, "events"); !slices.Equal(got, want) {
			t.Fatalf("round %d: mutating snapshots changed the log: %v, want %v", round, got, want)
		}
	}
}

// A traced /observe that leads the WAL commit shows it: the "wal commit"
// span nests under the request's "ingest <table>" span, so a slow-request
// log says whose fsync the request paid for (and a follower's trace, having
// no such span, says it rode someone else's).
func TestObserveTraceShowsWalCommit(t *testing.T) {
	svc, err := OpenService(Config{DriftThreshold: 100, DriftWindow: 16, Store: durableStore(t, t.TempDir(), 16)})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	register(t, svc)

	ctx, tr := telemetry.NewTrace(context.Background(), "POST /observe")
	if _, err := svc.ObserveContext(ctx, "events", singleColumnBatch()); err != nil {
		t.Fatal(err)
	}
	depth := map[string]int{}
	for _, sp := range tr.Spans() {
		depth[sp.Name] = sp.Depth
	}
	ingest, ok := depth["ingest events"]
	commit, ok2 := depth["wal commit (1 callers, 1 events)"]
	if !ok || !ok2 || commit != ingest+1 {
		t.Fatalf("spans %v: want \"wal commit (1 callers, 1 events)\" one level under \"ingest events\"", tr.Spans())
	}
}
