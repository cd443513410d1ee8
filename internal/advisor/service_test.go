package advisor

import (
	"errors"
	"sync"
	"testing"

	"knives/internal/attrset"
	"knives/internal/cost"
	"knives/internal/schema"
)

// wideTable builds a table of four equally wide columns: co-access patterns
// on it translate directly into layout (and drift) decisions.
func wideTable(t *testing.T) *schema.Table {
	t.Helper()
	tab, err := schema.NewTable("events", 1_000_000, []schema.Column{
		{Name: "a", Kind: schema.KindChar, Size: 100},
		{Name: "b", Kind: schema.KindChar, Size: 100},
		{Name: "c", Kind: schema.KindChar, Size: 100},
		{Name: "d", Kind: schema.KindChar, Size: 100},
	})
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// coAccessWorkload references a and b strictly together.
func coAccessWorkload(tab *schema.Table) schema.TableWorkload {
	return schema.TableWorkload{Table: tab, Queries: []schema.TableQuery{
		{ID: "q1", Weight: 1, Attrs: attrset.Of(0, 1)},
		{ID: "q2", Weight: 1, Attrs: attrset.Of(0, 1)},
		{ID: "q3", Weight: 1, Attrs: attrset.Of(2, 3)},
	}}
}

func TestServiceCacheHitSkipsSearchKernel(t *testing.T) {
	svc := NewService(Config{})
	tw := coAccessWorkload(wideTable(t))

	first, hit, err := svc.AdviseTable(tw)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Error("first request reported a cache hit")
	}
	if got := svc.Stats(); got.Searches != 1 || got.Hits != 0 || got.Requests != 1 {
		t.Errorf("after miss: %+v", got)
	}

	second, hit, err := svc.AdviseTable(tw)
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Error("identical request missed the cache")
	}
	if got := svc.Stats(); got.Searches != 1 {
		t.Errorf("cache hit ran the search kernel: %+v", got)
	}
	if first.Cost != second.Cost || !first.Layout.Equal(second.Layout) {
		t.Error("cached advice differs from computed advice")
	}

	// A different workload over the same table is a different fingerprint.
	other := schema.TableWorkload{Table: tw.Table, Queries: []schema.TableQuery{
		{ID: "q", Weight: 1, Attrs: attrset.Of(0, 2)},
	}}
	if _, hit, err = svc.AdviseTable(other); err != nil {
		t.Fatal(err)
	} else if hit {
		t.Error("different workload hit the cache")
	}
	if got := svc.Stats(); got.Searches != 2 || got.Cached != 2 {
		t.Errorf("after second workload: %+v", got)
	}
}

// Concurrent identical requests must collapse into exactly one search: the
// entry's once is claimed by a single goroutine and everyone else blocks on
// the result.
func TestServiceConcurrentIdenticalRequestsSearchOnce(t *testing.T) {
	svc := NewService(Config{})
	tw := coAccessWorkload(wideTable(t))
	const clients = 16
	advice := make([]TableAdvice, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			advice[i], _, errs[i] = svc.AdviseTable(tw)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
		if advice[i].Cost != advice[0].Cost || !advice[i].Layout.Equal(advice[0].Layout) {
			t.Errorf("client %d got different advice", i)
		}
	}
	if got := svc.Stats(); got.Searches != 1 {
		t.Errorf("%d concurrent identical requests ran %d searches, want 1", clients, got.Searches)
	}
}

// Drift injection: advice computed for a co-access workload goes stale when
// the live stream starts touching a and b separately; the tracker's O2P
// shadow notices and the advice is recomputed.
func TestServiceDriftInvalidatesStaleAdvice(t *testing.T) {
	svc := NewService(Config{DriftThreshold: 0.15, DriftWindow: 8})
	tab := wideTable(t)
	tw := coAccessWorkload(tab)

	stale, _, err := svc.AdviseTable(tw)
	if err != nil {
		t.Fatal(err)
	}
	// The advised layout must keep a and b together for the drift below to
	// be a real regression (this is what the co-access workload forces).
	if got := stale.Layout.PartOf(0); !got.Has(1) {
		t.Fatalf("precondition: advice %s does not co-locate a and b", stale.Layout)
	}

	// Live traffic shifts: a and b are now only ever read alone, so every
	// query drags the other 100-byte column along for nothing (~2x cost).
	single := []schema.TableQuery{
		{ID: "s1", Weight: 1, Attrs: attrset.Of(0)},
		{ID: "s2", Weight: 1, Attrs: attrset.Of(1)},
	}
	var recomputed bool
	var last DriftReport
	for batch := 0; batch < 8 && !recomputed; batch++ {
		last, err = observe(svc, tab, single)
		if err != nil {
			t.Fatal(err)
		}
		recomputed = last.Recomputed
	}
	if !recomputed {
		t.Fatalf("advice never recomputed; last drift ratio %v (threshold %v)", last.Ratio, last.Threshold)
	}
	if got := svc.Stats(); got.Recomputes < 1 {
		t.Errorf("stats did not count the recompute: %+v", got)
	}

	fresh, err := svc.CurrentAdvice(tab.Name)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Layout.Equal(stale.Layout) {
		t.Errorf("recomputed advice kept the stale layout %s", stale.Layout)
	}
	if got := fresh.Layout.PartOf(0); got.Has(1) {
		t.Errorf("fresh advice %s still co-locates a and b under single-column traffic", fresh.Layout)
	}
}

// A drift recompute must cache the fresh advice under the fingerprint of
// the exact log snapshot it was computed from, so a later /advise for that
// workload is a hit answering with that advice.
func TestServiceDriftRecomputeCachesSnapshotWorkload(t *testing.T) {
	svc := NewService(Config{DriftThreshold: 0.15, DriftWindow: 8})
	tab := wideTable(t)
	if _, _, err := svc.AdviseTable(coAccessWorkload(tab)); err != nil {
		t.Fatal(err)
	}
	single := []schema.TableQuery{
		{ID: "s1", Weight: 1, Attrs: attrset.Of(0)},
		{ID: "s2", Weight: 1, Attrs: attrset.Of(1)},
	}
	var log []schema.TableQuery
	log = append(log, coAccessWorkload(tab).Queries...)
	recomputed := false
	for batch := 0; batch < 8 && !recomputed; batch++ {
		rep, err := observe(svc, tab, single)
		if err != nil {
			t.Fatal(err)
		}
		log = append(log, single...)
		recomputed = rep.Recomputed
	}
	if !recomputed {
		t.Fatal("drift never triggered")
	}
	// Reconstruct the windowed log the tracker recomputed from.
	if len(log) > 8 {
		log = log[len(log)-8:]
	}
	snapshot := schema.TableWorkload{Table: tab, Queries: log}
	searchesBefore := svc.Stats().Searches
	advice, hit, err := svc.AdviseTable(snapshot)
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Error("recomputed snapshot workload missed the cache")
	}
	if got := svc.Stats().Searches; got != searchesBefore {
		t.Errorf("cache hit ran a search (%d -> %d)", searchesBefore, got)
	}
	current, err := svc.CurrentAdvice(tab.Name)
	if err != nil {
		t.Fatal(err)
	}
	if advice.Cost != current.Cost || !advice.Layout.Equal(current.Layout) {
		t.Error("cached snapshot advice differs from tracked advice")
	}
}

// Zero weights price as 1 everywhere, so a weight-0 workload and its
// weight-1 twin must share both the fingerprint and the computed advice —
// the search must run on the normalized workload, not the raw one.
func TestServiceNormalizesZeroWeightsBeforeSearching(t *testing.T) {
	svc := NewService(Config{})
	tab := wideTable(t)
	zero := schema.TableWorkload{Table: tab, Queries: []schema.TableQuery{
		{ID: "q1", Weight: 0, Attrs: attrset.Of(0, 1)},
		{ID: "q2", Weight: 1, Attrs: attrset.Of(2, 3)},
	}}
	one := schema.TableWorkload{Table: tab, Queries: []schema.TableQuery{
		{ID: "q1", Weight: 1, Attrs: attrset.Of(0, 1)},
		{ID: "q2", Weight: 1, Attrs: attrset.Of(2, 3)},
	}}
	fromZero, hit, err := svc.AdviseTable(zero)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Error("first request hit the cache")
	}
	fromOne, hit, err := svc.AdviseTable(one)
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Error("weight-1 twin missed the cache")
	}
	want, err := AdviseTable(one, nil)
	if err != nil {
		t.Fatal(err)
	}
	if fromZero.Cost != want.Cost || fromOne.Cost != want.Cost {
		t.Errorf("cached advice cost %v / %v, want the weight-1 pricing %v",
			fromZero.Cost, fromOne.Cost, want.Cost)
	}
}

// The cache is bounded: past the capacity the oldest fingerprints are
// evicted, so a long-running daemon cannot grow without limit.
func TestServiceCacheCapacityEvicts(t *testing.T) {
	svc := NewService(Config{CacheCapacity: 2})
	tab := wideTable(t)
	workloads := make([]schema.TableWorkload, 4)
	for i := range workloads {
		workloads[i] = schema.TableWorkload{Table: tab, Queries: []schema.TableQuery{
			{ID: "q", Weight: float64(i + 1), Attrs: attrset.Of(0, 1)},
		}}
		if _, _, err := svc.AdviseTable(workloads[i]); err != nil {
			t.Fatal(err)
		}
	}
	if got := svc.Stats().Cached; got > 2 {
		t.Errorf("cache holds %d entries, capacity 2", got)
	}
	// The oldest workload was evicted: asking again is a miss (one more
	// search), while the newest is still a hit.
	before := svc.Stats().Searches
	if _, hit, err := svc.AdviseTable(workloads[0]); err != nil {
		t.Fatal(err)
	} else if hit {
		t.Error("evicted workload reported a cache hit")
	}
	if got := svc.Stats().Searches; got != before+1 {
		t.Errorf("evicted workload did not re-search (%d -> %d)", before, got)
	}
	if _, hit, err := svc.AdviseTable(workloads[0]); err != nil {
		t.Fatal(err)
	} else if !hit {
		t.Error("re-inserted workload missed the cache")
	}
}

func TestServiceDefaultDriftWindowIsFinite(t *testing.T) {
	svc := NewService(Config{})
	if svc.cfg.DriftWindow != DefaultDriftWindow {
		t.Errorf("default drift window = %d, want %d", svc.cfg.DriftWindow, DefaultDriftWindow)
	}
	if svc.cfg.TrackerCapacity != DefaultTrackerCapacity {
		t.Errorf("default tracker capacity = %d, want %d", svc.cfg.TrackerCapacity, DefaultTrackerCapacity)
	}
	unbounded := NewService(Config{DriftWindow: -1})
	if unbounded.cfg.DriftWindow >= 0 {
		t.Errorf("negative drift window normalized to %d, want unbounded", unbounded.cfg.DriftWindow)
	}
}

// The trackers map is bounded like the advice cache: past the capacity the
// longest-registered tables lose their trackers and must be re-advised.
func TestServiceTrackerCapacityEvicts(t *testing.T) {
	svc := NewService(Config{TrackerCapacity: 2})
	names := []string{"t1", "t2", "t3"}
	tabs := make([]*schema.Table, len(names))
	for i, name := range names {
		tab, err := schema.NewTable(name, 1000, []schema.Column{
			{Name: "a", Kind: schema.KindChar, Size: 100},
			{Name: "b", Kind: schema.KindChar, Size: 100},
		})
		if err != nil {
			t.Fatal(err)
		}
		tabs[i] = tab
		tw := schema.TableWorkload{Table: tab, Queries: []schema.TableQuery{
			{ID: "q", Weight: 1, Attrs: attrset.Of(0, 1)},
		}}
		if _, _, err := svc.AdviseTable(tw); err != nil {
			t.Fatal(err)
		}
	}
	if got := svc.Stats().Tracked; got > 2 {
		t.Errorf("%d trackers live, capacity 2", got)
	}
	if _, err := svc.CurrentAdvice("t1"); err == nil {
		t.Error("evicted tracker still answers")
	}
	if _, err := svc.CurrentAdvice("t3"); err != nil {
		t.Errorf("newest tracker evicted: %v", err)
	}
	// Re-advising the evicted table re-registers it even though the advice
	// cache still holds its fingerprint (the documented remedy works).
	tw1 := schema.TableWorkload{Table: tabs[0], Queries: []schema.TableQuery{
		{ID: "q", Weight: 1, Attrs: attrset.Of(0, 1)},
	}}
	if _, hit, err := svc.AdviseTable(tw1); err != nil {
		t.Fatal(err)
	} else if !hit {
		t.Error("re-advised workload missed the advice cache")
	}
	if _, err := svc.CurrentAdvice("t1"); err != nil {
		t.Errorf("re-advised table still unregistered: %v", err)
	}
}

// Re-advising the workload a tracker is registered with must not reset its
// accumulated observation state — matched by fingerprint, not by cache
// residency.
func TestServiceReadviseSameWorkloadPreservesObservations(t *testing.T) {
	svc := NewService(Config{})
	tab := wideTable(t)
	tw := coAccessWorkload(tab)
	if _, _, err := svc.AdviseTable(tw); err != nil {
		t.Fatal(err)
	}
	batch := []schema.TableQuery{{ID: "o", Weight: 1, Attrs: attrset.Of(0, 1)}}
	for i := 0; i < 3; i++ {
		if _, err := observe(svc, tab, batch); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := svc.AdviseTable(tw); err != nil { // identical workload
		t.Fatal(err)
	}
	rep, err := observe(svc, tab, batch)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Observed != 4 {
		t.Errorf("observed = %d after identical re-advise, want 4 (state preserved)", rep.Observed)
	}
	// A genuinely different workload DOES reset the tracker.
	other := schema.TableWorkload{Table: tab, Queries: []schema.TableQuery{
		{ID: "q", Weight: 1, Attrs: attrset.Of(2)},
	}}
	if _, _, err := svc.AdviseTable(other); err != nil {
		t.Fatal(err)
	}
	rep, err = observe(svc, tab, batch)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Observed != 1 {
		t.Errorf("observed = %d after different re-advise, want 1 (state reset)", rep.Observed)
	}
}

func TestServiceObserveUnknownTable(t *testing.T) {
	svc := NewService(Config{})
	if _, err := observe(svc, &schema.Table{Name: "ghost"}, nil); !errors.Is(err, ErrNotRegistered) {
		t.Errorf("observe on an unregistered table: err=%v, want ErrNotRegistered", err)
	}
	if _, err := svc.CurrentAdvice("ghost"); err == nil {
		t.Error("CurrentAdvice accepted an unregistered table")
	}
}

// Re-registering a table name with a smaller schema must not let observed
// queries named after the old schema price out-of-range attributes: the
// tracker resolves names against its current table and fails cleanly.
func TestServiceObserveRejectsAttrsOutsideCurrentSchema(t *testing.T) {
	svc := NewService(Config{})
	wide := wideTable(t)
	if _, _, err := svc.AdviseTable(coAccessWorkload(wide)); err != nil {
		t.Fatal(err)
	}
	small, err := schema.NewTable("events", 1000, []schema.Column{
		{Name: "a", Kind: schema.KindChar, Size: 100},
		{Name: "b", Kind: schema.KindChar, Size: 100},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := svc.AdviseTable(schema.TableWorkload{Table: small, Queries: []schema.TableQuery{
		{ID: "q", Weight: 1, Attrs: attrset.Of(0, 1)},
	}}); err != nil {
		t.Fatal(err)
	}
	// Column d existed in the 4-column registration but not in the current
	// 2-column schema.
	if _, err := observe(svc, wide, []schema.TableQuery{
		{ID: "stale", Weight: 1, Attrs: attrset.Of(3)},
	}); !errors.Is(err, ErrStaleSchema) {
		t.Errorf("observe of a column outside the re-registered schema: err=%v, want ErrStaleSchema", err)
	}
	// In-range observations still flow.
	if _, err := observe(svc, small, []schema.TableQuery{
		{ID: "ok", Weight: 1, Attrs: attrset.Of(0)},
	}); err != nil {
		t.Fatal(err)
	}
}

// Prewarm must leave the cache in exactly the state organic requests would:
// every table of the benchmark answered, all follow-up requests hits, and
// the advice identical to a cold computation.
func TestServicePrewarmSeedsCache(t *testing.T) {
	bench := schema.TPCH(0.01)
	warm := NewService(Config{})
	if err := warm.Prewarm(bench); err != nil {
		t.Fatal(err)
	}
	st := warm.Stats()
	if st.Cached != len(bench.Tables) || st.Tracked != len(bench.Tables) {
		t.Fatalf("prewarm cached %d / tracked %d, want %d", st.Cached, st.Tracked, len(bench.Tables))
	}

	cold := NewService(Config{})
	for _, tw := range bench.TableWorkloads() {
		warmAdvice, hit, err := warm.AdviseTable(tw)
		if err != nil {
			t.Fatal(err)
		}
		if !hit {
			t.Errorf("%s: prewarmed request missed the cache", tw.Table.Name)
		}
		coldAdvice, _, err := cold.AdviseTable(tw)
		if err != nil {
			t.Fatal(err)
		}
		if warmAdvice.Cost != coldAdvice.Cost || warmAdvice.Algorithm != coldAdvice.Algorithm ||
			!warmAdvice.Layout.Equal(coldAdvice.Layout) {
			t.Errorf("%s: prewarmed advice (%s, %v) differs from cold advice (%s, %v)",
				tw.Table.Name, warmAdvice.Algorithm, warmAdvice.Cost, coldAdvice.Algorithm, coldAdvice.Cost)
		}
	}
	if got := warm.Stats(); got.Hits != int64(len(bench.Tables)) {
		t.Errorf("post-prewarm requests: %+v", got)
	}
}

func TestServiceMMModel(t *testing.T) {
	svc := NewService(Config{Model: cost.NewMM()})
	tw := coAccessWorkload(wideTable(t))
	adv, _, err := svc.AdviseTable(tw)
	if err != nil {
		t.Fatal(err)
	}
	// Under the MM model nothing beats full column layout (paper, Table 6).
	if adv.Cost > adv.ColumnCost {
		t.Errorf("MM advice %v worse than column %v", adv.Cost, adv.ColumnCost)
	}
}
