package advisor

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

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
	// Every Observe call is its own round.
	if st.IngestGroups != st.ObserveBatches {
		t.Errorf("IngestGroups = %d, want one per batch (%d)", st.IngestGroups, st.ObserveBatches)
	}
}

// One bad batch fails alone: concurrent batches for its table, and the
// other batches of its own round, commit and report normally.
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

	// A bad entry beside a good one in the same round.
	if _, _, err := svc.AdviseTable(coAccessWorkload(namedWideTable(t, "other"))); err != nil {
		t.Fatal(err)
	}
	groups := svc.Stats().IngestGroups
	outs := svc.ObserveBatch(context.Background(), []TableObservation{
		{Table: "other", Queries: []ObservedQry{{Attrs: []string{"zz"}}}},
		{Table: "events", Queries: []ObservedQry{{Attrs: []string{"a"}}}},
	})
	if !errors.Is(outs[0].Err, ErrStaleSchema) || outs[1].Err != nil {
		t.Errorf("round outcomes: bad=%v good=%v, want ErrStaleSchema and nil", outs[0].Err, outs[1].Err)
	}
	if st := svc.Stats(); st.IngestGroups != groups+1 || st.ObservedQueries != good+1 {
		t.Errorf("after the round: groups +%d, queries %d; want +1 and %d", st.IngestGroups-groups, st.ObservedQueries, good+1)
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

// One 8-table observe request is one round: one WAL append, one fsync, one
// ingest group carrying all 8 batches.
func TestObserveBatchOneCommit(t *testing.T) {
	reg := telemetry.NewRegistry()
	fs, err := vfs.Dir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	st, err := statestore.Open(fs, statestore.Options{DriftWindow: 64, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := OpenService(Config{DriftWindow: 64, Store: st, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	bench := schema.TPCH(0.01)
	if err := svc.Prewarm(bench); err != nil {
		t.Fatal(err)
	}
	var batches []TableObservation
	for _, tw := range bench.TableWorkloads() {
		var qs []ObservedQry
		for _, q := range tw.Queries {
			qs = append(qs, ObservedQry{Attrs: tw.Table.AttrNames(q.Attrs), Weight: q.Weight})
		}
		batches = append(batches, TableObservation{Table: tw.Table.Name, Queries: qs})
	}
	if len(batches) != 8 {
		t.Fatalf("TPC-H has %d tables, want 8", len(batches))
	}

	fsyncs := reg.Histogram("knives_wal_fsync_seconds")
	groupBatches := reg.Histogram("knives_ingest_group_batches")
	fsyncs0, groups0 := fsyncs.Count(), svc.Stats().IngestGroups
	gbCount0, gbSum0 := groupBatches.Count(), groupBatches.Sum()
	for _, o := range svc.ObserveBatch(context.Background(), batches) {
		if o.Err != nil {
			t.Fatalf("%s: %v", o.Table, o.Err)
		}
	}
	if got := fsyncs.Count() - fsyncs0; got != 1 {
		t.Errorf("one 8-table request took %d fsyncs, want 1", got)
	}
	if got := svc.Stats().IngestGroups - groups0; got != 1 {
		t.Errorf("one 8-table request took %d ingest groups, want 1", got)
	}
	if n, sum := groupBatches.Count()-gbCount0, groupBatches.Sum()-gbSum0; n != 1 || sum != 8 {
		t.Errorf("knives_ingest_group_batches moved by %d observations summing %v, want one of 8", n, sum)
	}
}

// withWatchdog runs fn and fails the test with every goroutine's stack if
// it has not returned within d — a lock-order deadlock reads as a stuck
// stack instead of a suite timeout.
func withWatchdog(t *testing.T, d time.Duration, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(d):
		buf := make([]byte, 1<<20)
		t.Fatalf("still running after %v (deadlock?):\n%s", d, buf[:runtime.Stack(buf, true)])
	}
}

// namedWideTable is wideTable under another name.
func namedWideTable(t *testing.T, name string) *schema.Table {
	t.Helper()
	tab := wideTable(t)
	named, err := schema.NewTable(name, tab.Rows, tab.Columns)
	if err != nil {
		t.Fatal(err)
	}
	return named
}

// Concurrent rounds over overlapping table sets — in opposite orders, with
// repeated tables — beside single-table observes and re-registrations
// never deadlock (rounds lock in name order), and each table's journal
// order is its apply order: the state recovered from the WAL equals the
// live state. Run with -race.
func TestObserveConcurrentRoundsRecover(t *testing.T) {
	const window = 32
	dir := t.TempDir()
	st := durableStore(t, dir, window)
	svc, err := OpenService(Config{DriftWindow: window, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"t0", "t1", "t2", "t3"}
	tabs := make(map[string]*schema.Table)
	for _, n := range names {
		tabs[n] = namedWideTable(t, n)
		if _, _, err := svc.AdviseTable(coAccessWorkload(tabs[n])); err != nil {
			t.Fatal(err)
		}
	}
	cols := []string{"a", "b", "c", "d"}
	obs := func(table string, i int) TableObservation {
		return TableObservation{Table: table, Queries: []ObservedQry{
			{Attrs: []string{cols[i%4]}, Weight: float64(1 + i%3)},
			{Attrs: []string{cols[(i+1)%4], cols[(i+2)%4]}},
		}}
	}
	shapes := [][]string{
		{"t0", "t1", "t2", "t3"},
		{"t3", "t2", "t1", "t0"},
		{"t1", "t1", "t2", "t1"},
		{"t2", "t0", "t2", "t0"},
	}
	const iters = 40
	ctx := context.Background()
	withWatchdog(t, time.Minute, func() {
		var wg sync.WaitGroup
		for w, shape := range shapes {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < iters; i++ {
					batches := make([]TableObservation, len(shape))
					for j, n := range shape {
						batches[j] = obs(n, w+i+j)
					}
					for _, o := range svc.ObserveBatch(ctx, batches) {
						if o.Err != nil {
							t.Errorf("shape %v, %s: %v", shape, o.Table, o.Err)
							return
						}
					}
				}
			}()
		}
		for _, n := range names {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < iters; i++ {
					if _, err := svc.ObserveNamedContext(ctx, n, obs(n, i).Queries); err != nil {
						t.Errorf("single observe %s: %v", n, err)
						return
					}
				}
			}()
		}
		// Re-registrations alternate each table between two workloads, so
		// every one resets its tracker while rounds are applying to it.
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				tw := coAccessWorkload(tabs[names[i%len(names)]])
				if i%2 == 1 {
					tw.Queries = tw.Queries[1:]
				}
				if _, _, err := svc.AdviseTable(tw); err != nil {
					t.Errorf("re-register: %v", err)
					return
				}
			}
		}()
		wg.Wait()
	})

	live := normalized(svc.ExportState())
	if err := st.Close(); err != nil { // no snapshot: recovery replays the WAL
		t.Fatal(err)
	}
	st2 := durableStore(t, dir, window)
	svc2, err := OpenService(Config{DriftWindow: window, Store: st2})
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	if !bytes.Equal(normalized(svc2.ExportState()), live) {
		t.Fatal("state recovered from the WAL differs from the live state: journal order is not apply order")
	}
}

// A verdict answers its own batch: concurrent one-query observes on one
// table each report a distinct Observed — that batch's apply position —
// never a count shared with a batch it happened to commit beside.
func TestObserveVerdictIsItsOwnBatch(t *testing.T) {
	svc, err := OpenService(Config{DriftThreshold: 100, DriftWindow: 64, Store: durableStore(t, t.TempDir(), 64)})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	register(t, svc)

	const n = 32
	observed := make([]int64, n)
	withWatchdog(t, time.Minute, func() {
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rep, err := svc.Observe("events", []schema.TableQuery{
					{ID: fmt.Sprintf("o%d", i), Weight: 1, Attrs: attrset.Of(i % 4)},
				})
				if err != nil {
					t.Error(err)
				}
				observed[i] = rep.Observed
			}()
		}
		wg.Wait()
	})
	slices.Sort(observed)
	for i, got := range observed {
		if got != int64(i+1) {
			t.Fatalf("sorted Observed = %v, want 1..%d: verdicts shared between batches", observed, n)
		}
	}
}
