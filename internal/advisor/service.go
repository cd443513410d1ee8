package advisor

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"knives/internal/algo"
	"knives/internal/cost"
	"knives/internal/migrate"
	"knives/internal/replay"
	"knives/internal/schema"
	"knives/internal/statestore"
	"knives/internal/telemetry"
)

// Config parameterizes a Service.
type Config struct {
	// Model prices layouts; nil defaults to the paper's HDD model on the
	// default disk.
	Model cost.Model
	// DriftThreshold is the relative cost divergence past which cached
	// advice is invalidated and recomputed; <= 0 uses
	// DefaultDriftThreshold.
	DriftThreshold float64
	// DriftWindow bounds how many observed queries each table's tracker
	// retains; 0 uses DefaultDriftWindow, negative keeps the whole log
	// (only sensible for bounded offline replays — the daemon should keep
	// a finite window).
	DriftWindow int
	// CacheCapacity bounds the fingerprint cache; when full, the oldest
	// entries are evicted first. 0 uses DefaultCacheCapacity, negative
	// disables eviction.
	CacheCapacity int
	// TrackerCapacity bounds how many per-table drift trackers the service
	// keeps; when full, the longest-registered tracker is evicted first
	// (its table must be re-advised to be tracked again). 0 uses
	// DefaultTrackerCapacity, negative disables eviction.
	TrackerCapacity int
	// MigrateWindow is the default break-even horizon bound (in queries of
	// the tracked mix) for migration plans whose request does not name one.
	// 0 uses migrate.DefaultWindow.
	MigrateWindow int64
	// Store persists tracker state across restarts. nil (or any store whose
	// Journaling() is false, like statestore.NewMem()) keeps everything
	// in-memory only — the pre-durability behavior. A journaling store
	// (statestore.Open) makes every tracker mutation journal-before-apply
	// and OpenService rebuild the trackers it recovered. The store's drift
	// window should match DriftWindow, or recovered logs are re-trimmed to
	// the smaller of the two.
	Store statestore.Store
	// Telemetry, when set, receives the service's request/ingest/drift
	// latency histograms and counter bindings (and installs the
	// process-wide search-gate wait observer). Nil disables service
	// instrumentation at the cost of one nil check per point. Share the
	// registry with statestore.Options.Metrics and the HTTP server so one
	// /metrics scrape covers the whole daemon.
	Telemetry *telemetry.Registry
}

// DefaultCacheCapacity bounds the advice cache in a long-running daemon:
// every distinct workload fingerprint (and every drift recompute) inserts
// an entry, so without a cap memory grows with the lifetime of the
// process.
const DefaultCacheCapacity = 4096

// DefaultTrackerCapacity bounds the drift trackers for the same reason the
// advice cache is bounded; each tracker holds a schema, up to a drift
// window of logged queries, and the current advice.
const DefaultTrackerCapacity = 1024

// Service is a long-running, concurrent partitioning advisor: it answers
// workload questions from a fingerprint-keyed advice cache, computes misses
// by fanning the portfolio out over the parallel search kernel, and watches
// per-table query streams for drift. All methods are safe for concurrent
// use.
// adviceKey identifies one cached advice computation: the workload
// fingerprint plus the canonical key of the model that priced it. The same
// workload priced on a different device is a different question — without
// the model key, an SSD request could be answered with HDD advice.
type adviceKey struct {
	fp    Fingerprint
	model string
}

type Service struct {
	cfg   Config
	model cost.Model
	// modelKey canonically identifies the configured model for cache
	// keying; per-request model specs resolve their own keys.
	modelKey string
	// store persists tracker state; jn is its journal-before-apply hook
	// (nil when the store does not journal, so the hot path skips event
	// construction entirely).
	store statestore.Store
	jn    *journal

	// The tracker registry is the durable state: a FIFO-bounded map under
	// the service mutex, journaled before every mutation.
	mu       sync.Mutex
	trackers *statestore.FIFO[string, *Tracker]

	// The caches are rebuildable from searches and deliberately NOT
	// journaled: compute-once caches, each under its own lock, so the
	// expensive work (portfolio search, materialize-and-scan, migration)
	// never runs under the service mutex.
	entries        *statestore.OnceCache[adviceKey, TableAdvice]
	execEntries    *statestore.OnceCache[execKey, *replay.OperatorReplay]
	migrateEntries *statestore.OnceCache[migrateKey, *MigrationOutcome]
	// observeSeen is the redelivery-dedup window: recently applied batch
	// IDs and their outcomes, so a client retry after a lost response
	// answers the original ingest instead of double-counting — and a retry
	// RACING the original blocks until the first attempt's outcomes exist.
	observeSeen *statestore.OnceCache[string, []ObserveOutcome]
	// stores is where every executed report gets its engine, and keeps the
	// tables /query loaded resident between requests; see storeRegistry.
	stores *storeRegistry

	// tm holds the telemetry handles; the zero value (no registry) leaves
	// them nil and every instrumentation point free.
	tm svcMetrics

	requests    atomic.Int64 // table advice requests answered
	hits        atomic.Int64 // answered from cache without searching
	searches    atomic.Int64 // portfolio searches actually run
	recomputes  atomic.Int64 // drift-triggered recomputations
	replayRoute execRoute    // /replay's report requests and cache hits
	queryRoute  execRoute    // /query's
	migrations  atomic.Int64 // migration requests answered
	migrateHits atomic.Int64 // migrations answered from cache without executing
	// inexact counts /replay, /query and /migrate reports returned (fresh or
	// cached) with exact / verify_exact false — the system's ground-truth
	// claim, exported so that a broken identity is not visible only in a
	// response body. It must stay 0.
	inexact atomic.Int64

	// Batch-accurate observation counters: queries observed (not HTTP
	// requests), observation batches applied, and group commits — so
	// ingest and shed rates stay meaningful under batching.
	observedQueries atomic.Int64
	observeBatches  atomic.Int64
	ingestGroups    atomic.Int64
	observeDups     atomic.Int64 // batched observes answered from the dedup window
}

// NewService returns an empty advisor service. It accepts only
// non-journaling stores (nil, or statestore.NewMem()); a daemon opening a
// durable store uses OpenService, whose recovery can fail.
func NewService(cfg Config) *Service {
	s, err := OpenService(cfg)
	if err != nil {
		// Unreachable without a journaling store: recovery is the only
		// error source, and a non-journaling store recovers nothing.
		panic(fmt.Sprintf("advisor: NewService with a journaling store: %v (use OpenService)", err))
	}
	return s
}

// OpenService builds an advisor service on its configured state store and
// rebuilds a drift tracker for every table the store recovered. Tables
// journaled under a different pricing model than the service now runs are
// dropped (and their reset journaled): their advice, drift pricing, and
// migration plans all belong to hardware the daemon no longer models.
func OpenService(cfg Config) (*Service, error) {
	m := cfg.Model
	if m == nil {
		m = cost.NewHDD(cost.DefaultDisk())
	}
	if !(cfg.DriftThreshold > 0) { // negated compare also catches NaN
		cfg.DriftThreshold = DefaultDriftThreshold
	}
	if cfg.DriftWindow == 0 {
		cfg.DriftWindow = DefaultDriftWindow
	}
	if cfg.CacheCapacity == 0 {
		cfg.CacheCapacity = DefaultCacheCapacity
	}
	if cfg.TrackerCapacity == 0 {
		cfg.TrackerCapacity = DefaultTrackerCapacity
	}
	if cfg.MigrateWindow == 0 {
		cfg.MigrateWindow = migrate.DefaultWindow
	}
	st := cfg.Store
	if st == nil {
		st = statestore.NewMem()
	}
	s := &Service{
		cfg:            cfg,
		model:          m,
		modelKey:       modelKeyOf(m),
		store:          st,
		jn:             newJournal(st),
		trackers:       statestore.NewFIFO[string, *Tracker](cfg.TrackerCapacity),
		entries:        statestore.NewOnceCache[adviceKey, TableAdvice](cfg.CacheCapacity),
		execEntries:    statestore.NewOnceCache[execKey, *replay.OperatorReplay](DefaultReplayCacheCapacity),
		migrateEntries: statestore.NewOnceCache[migrateKey, *MigrationOutcome](DefaultMigrateCacheCapacity),
		observeSeen:    statestore.NewOnceCache[string, []ObserveOutcome](DefaultObserveDedupWindow),
		stores:         newStoreRegistry(residentStoreBudget),
		queryRoute:     execRoute{query: true},
	}
	for _, ts := range st.Recovered() {
		if ts.ModelKey != s.modelKey {
			// Best-effort: a failed reset append leaves the entry in the
			// journal, where the fold resets it at the table's next
			// EvAdviseCommit (and this same check drops it again on the
			// next restart) — it never resurrects into a live tracker.
			if s.jn != nil {
				_ = s.jn.append(statestore.Event{Type: statestore.EvReset, Table: ts.Table.Name})
			}
			continue
		}
		t, err := s.recoverTracker(ts)
		if err != nil {
			return nil, err
		}
		// A recovered set larger than TrackerCapacity (the daemon restarted
		// with a smaller bound) trims oldest-first, like live registration.
		for _, old := range s.trackers.Evictions(ts.Table.Name) {
			if s.jn != nil {
				_ = s.jn.append(statestore.Event{Type: statestore.EvReset, Table: old})
			}
			s.trackers.Drop(old)
		}
		s.trackers.Insert(ts.Table.Name, t)
	}
	if cfg.Telemetry != nil {
		s.tm.bind(cfg.Telemetry, s)
	}
	return s, nil
}

// Close snapshots the state store (compacting the journal) and closes it.
// Call it on daemon shutdown, after in-flight requests drained.
func (s *Service) Close() error {
	snapErr := s.store.Snapshot()
	if err := s.store.Close(); err != nil {
		return err
	}
	return snapErr
}

// Stats is a snapshot of the service counters.
type Stats struct {
	Requests int64 `json:"requests"`
	Hits     int64 `json:"hits"`
	Misses   int64 `json:"misses"`
	// Searches counts portfolio searches whose result was served, seeded,
	// or installed. O2P shadow runs and the rare drift recompute whose
	// install lost a race are kernel work this counter does not include.
	Searches   int64 `json:"searches"`
	Recomputes int64 `json:"recomputes"`
	Cached     int   `json:"cached_entries"`
	Tracked    int   `json:"tracked_tables"`
	// Replays counts /replay table reports answered; ReplayHits the ones
	// served from the report cache without executing anything. CachedReplays
	// is the size of that cache, which /replay and /query share.
	Replays       int64 `json:"replays"`
	ReplayHits    int64 `json:"replay_hits"`
	CachedReplays int   `json:"cached_replays"`
	// Migrations counts migration requests answered; MigrateHits the ones
	// served from the outcome cache without planning or executing.
	Migrations       int64 `json:"migrations"`
	MigrateHits      int64 `json:"migrate_hits"`
	CachedMigrations int   `json:"cached_migrations"`
	// ResidentStores counts the materialized tables kept loaded between
	// requests (the ones a /query loaded), ResidentStoreBytes their page
	// bytes (bounded by a fixed budget).
	ResidentStores     int   `json:"resident_stores"`
	ResidentStoreBytes int64 `json:"resident_store_bytes"`
	// Shed counts requests refused with 429 by the server's admission gate.
	// The Service itself never sheds; the serving layer fills this in.
	Shed int64 `json:"shed"`
	// ObservedQueries counts QUERIES ingested by observation batches —
	// not HTTP requests — so ingest rates stay meaningful under batching.
	// ObserveBatches counts the applied batches, and IngestGroups the
	// rounds they were committed in (one WAL append each; a request whose
	// tables are all distinct is one round).
	ObservedQueries int64 `json:"observed_queries"`
	ObserveBatches  int64 `json:"observe_batches"`
	IngestGroups    int64 `json:"ingest_groups"`
	// DuplicateBatches counts batched observes answered from the dedup
	// window without re-ingesting (redeliveries of an applied batch ID).
	DuplicateBatches int64 `json:"duplicate_batches"`
	// Recovery reports what the journaling store replayed at open —
	// snapshot coverage, segments scanned, records replayed, torn-tail and
	// skip counts. Nil for an in-memory (non-journaling) service.
	Recovery *statestore.RecoveryReport `json:"recovery,omitempty"`
}

// Stats returns a snapshot of the service counters.
func (s *Service) Stats() Stats {
	s.mu.Lock()
	tracked := s.trackers.Len()
	s.mu.Unlock()
	// Load hits before requests: a request increments requests first, so
	// this order can only overcount misses, never report a negative count.
	hits := s.hits.Load()
	req := s.requests.Load()
	replayHits := s.replayRoute.hits.Load()
	replays := s.replayRoute.requests.Load()
	migrateHits := s.migrateHits.Load()
	migrations := s.migrations.Load()
	stores, storeBytes := s.stores.resident()
	var recovery *statestore.RecoveryReport
	if s.store.Journaling() {
		rep := s.store.Report()
		recovery = &rep
	}
	return Stats{
		Recovery:         recovery,
		Requests:         req,
		Hits:             hits,
		Misses:           req - hits,
		Searches:         s.searches.Load(),
		Recomputes:       s.recomputes.Load(),
		Cached:           s.entries.Len(),
		Tracked:          tracked,
		Replays:          replays,
		ReplayHits:       replayHits,
		CachedReplays:    s.execEntries.Len(),
		Migrations:       migrations,
		MigrateHits:      migrateHits,
		CachedMigrations: s.migrateEntries.Len(),
		ObservedQueries:  s.observedQueries.Load(),
		ObserveBatches:   s.observeBatches.Load(),
		IngestGroups:     s.ingestGroups.Load(),
		DuplicateBatches: s.observeDups.Load(),

		ResidentStores:     stores,
		ResidentStoreBytes: storeBytes,
	}
}

// AdviseTable answers one table workload, from cache when the fingerprint
// has been answered before. The second return reports whether the answer
// came from cache (no search kernel invocation by this call).
func (s *Service) AdviseTable(tw schema.TableWorkload) (TableAdvice, bool, error) {
	return s.AdviseTableContext(context.Background(), tw)
}

// AdviseTableContext is AdviseTable under a request context: the deadline
// propagates through the portfolio's search-slot waits.
func (s *Service) AdviseTableContext(ctx context.Context, tw schema.TableWorkload) (TableAdvice, bool, error) {
	advice, _, hit, err := s.adviseTableAs(ctx, tw, s.model, s.modelKey)
	return advice, hit, err
}

// adviseTableAs answers one table workload under an explicit pricing model
// (a wire request's resolved ModelSpec, or the service default). Cache
// entries are scoped to (fingerprint, model key), so the same workload
// priced on different devices never shares advice.
//
// The context governs the search-slot waits of the requester that RUNS the
// search; a canceled winner's error is dropped like any failed computation,
// so a later request recomputes cleanly. Requesters blocked on the same key
// wait for the winner regardless of their own deadlines — the wait is
// bounded by one search, and the handler's deadline still bounds the whole
// request.
func (s *Service) adviseTableAs(ctx context.Context, tw schema.TableWorkload, m cost.Model, mkey string) (TableAdvice, Fingerprint, bool, error) {
	if tw.Table == nil {
		return TableAdvice{}, Fingerprint{}, false, fmt.Errorf("advisor: nil table")
	}
	for _, q := range tw.Queries {
		if !validWeight(q.Weight) {
			return TableAdvice{}, Fingerprint{}, false, fmt.Errorf(
				"advisor: query %s has invalid weight %v (it would corrupt the cost comparison)", q.ID, q.Weight)
		}
	}
	// Zero weights price as 1 (the ForTable convention) and fingerprint as
	// 1; searching with the raw workload would let two differently-priced
	// workloads share a cache entry.
	tw = normalizeWeights(tw)
	t0 := time.Now()
	s.requests.Add(1)
	fp := FingerprintOf(tw)
	advice, ran, err := s.entries.Do(adviceKey{fp: fp, model: mkey}, func() (TableAdvice, error) {
		s.searches.Add(1)
		sctx, sp := telemetry.StartSpan(ctx, "portfolio-search "+tw.Table.Name)
		defer sp.End()
		defer s.tm.search.Since(time.Now())
		return adviseTable(sctx, tw, m, &s.tm)
	})
	if err != nil {
		return TableAdvice{}, fp, false, err
	}
	// "Hit" always means "did not run the kernel".
	hit := !ran
	if hit {
		s.hits.Add(1)
	}
	// Register (for the daemon's own model): the helper preserves a live
	// tracker's observation state when the same workload is re-advised,
	// restores evicted trackers (the documented ErrNotRegistered remedy,
	// which must work even while the advice cache still answers), and
	// resets on a genuinely different registration.
	//
	// Requests priced on a per-request model are WHAT-IF questions: they
	// are answered (and cached) under their own device key but must not
	// touch the tracker — a read-shaped exploratory /advise on SSD would
	// otherwise wipe the accumulated drift log and rebind the applied
	// layout of a store the daemon tracks on its configured hardware. A
	// client that wants tracked SSD tables runs the daemon with -model ssd.
	if mkey == s.modelKey {
		// A journal-append failure surfaces as the request's error: the
		// registration was not applied (journal-before-apply), the advice
		// entry stays cached, and the client's retry re-attempts exactly
		// the registration.
		if err := s.registerTracker(tw, advice, fp, m, mkey); err != nil {
			return TableAdvice{}, fp, false, err
		}
	}
	if hit {
		s.tm.adviseHit.Since(t0)
	} else {
		s.tm.adviseMiss.Since(t0)
	}
	return advice, fp, hit, nil
}

// registerTracker creates or refreshes the drift tracker for a table after
// advice was answered. Trackers are keyed by table NAME and the last
// registration wins: a client advising a different workload under an
// existing name takes the name over, exactly like re-creating a table in a
// database. Re-advising the workload the tracker is already registered
// with (matched by fingerprint, NOT by cache residency — the advice cache
// may have evicted the entry independently) is a no-op that preserves the
// accumulated observation log and any in-flight recompute. Clients sharing
// a knivesd must own their table names; the tracker's in-lock validation
// turns the racy window into a clean ErrStaleSchema/ErrBadObservation,
// never garbage pricing.
//
// The tracker map mirrors the advice cache's FIFO bound: each tracker
// holds a schema, a query log, and advice, so an unbounded map would grow
// with every distinct table name for the life of the daemon. Like the
// cache's order slice, trackerOrder lists exactly the live tracker names,
// oldest registration first, each once.
// Every durable mutation here journals BEFORE it applies, under the same
// s.mu that orders it, so the journal's event order is the apply order:
// evictions append their EvReset and drop one at a time, then the new
// registration appends its EvAdviseCommit and inserts. A failed append
// returns with journal and memory still agreeing on everything already
// applied.
func (s *Service) registerTracker(tw schema.TableWorkload, advice TableAdvice, fp Fingerprint, m cost.Model, mkey string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.trackers.Get(tw.Table.Name)
	if !ok {
		for _, old := range s.trackers.Evictions(tw.Table.Name) {
			if s.jn != nil {
				if err := s.jn.append(statestore.Event{Type: statestore.EvReset, Table: old}); err != nil {
					return err
				}
			}
			s.trackers.Drop(old)
		}
		if s.jn != nil {
			if err := s.jn.append(commitEvent(tw, advice, fp, mkey)); err != nil {
				return err
			}
		}
		s.trackers.Insert(tw.Table.Name,
			newTracker(tw, advice, m, mkey, s.cfg.DriftThreshold, s.cfg.DriftWindow, fp, s.jn))
		return nil
	}
	// The fingerprint check and reset happen under s.mu so they always
	// apply to the LIVE tracker: with the lock released in between, an
	// eviction + re-registration could swap the map entry and this reset
	// would mutate an orphan while the live tracker kept another
	// workload's state. Tracker methods take only t.mu and never s.mu, so
	// holding s.mu across them cannot deadlock.
	if t.matches(fp, mkey) {
		return nil // an already-covered workload re-advised: keep the state
	}
	return t.setAdvice(tw, advice, fp, m, mkey)
}

// AdviseBenchmark answers every table of a benchmark, fanning tables out
// concurrently. Advice is sorted by table name; hits[i] corresponds to
// advice[i].
func (s *Service) AdviseBenchmark(b *schema.Benchmark) ([]TableAdvice, []bool, error) {
	if b == nil {
		return nil, nil, fmt.Errorf("advisor: nil benchmark")
	}
	tws := b.TableWorkloads()
	advice := make([]TableAdvice, len(tws))
	hits := make([]bool, len(tws))
	err := algo.FanOut(len(tws), func(i int) error {
		var err error
		advice[i], hits[i], err = s.AdviseTable(tws[i])
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	// Sort advice and hit flags together by table name.
	idx := make([]int, len(advice))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool {
		return advice[idx[i]].Table.Name < advice[idx[j]].Table.Name
	})
	sortedAdvice := make([]TableAdvice, len(advice))
	sortedHits := make([]bool, len(hits))
	for i, k := range idx {
		sortedAdvice[i] = advice[k]
		sortedHits[i] = hits[k]
	}
	return sortedAdvice, sortedHits, nil
}

// Prewarm answers every table of a benchmark before the server takes
// traffic, so the first clients hit warm advice and live drift trackers
// instead of racing cold searches. It is AdviseBenchmark with the advice
// discarded: the tables count as requests and misses in Stats like any
// organic request, and a repeated Prewarm re-registers trackers evicted
// past TrackerCapacity without resetting live ones.
func (s *Service) Prewarm(b *schema.Benchmark) error {
	if b == nil {
		return nil
	}
	_, _, err := s.AdviseBenchmark(b)
	return err
}

// Observe streams a batch of queries for a registered table into its drift
// tracker. If the advised layout has drifted past the threshold, the advice
// is recomputed from the observed log, the tracker updated, and the fresh
// advice cached under the observed workload's fingerprint.
func (s *Service) Observe(table string, queries []schema.TableQuery) (DriftReport, error) {
	return s.ObserveContext(context.Background(), table, queries)
}

// ObserveContext is Observe under a request context: the deadline covers
// the shadow search's slot wait and a drift recompute's portfolio fan-out.
// Weight 0 is coerced to 1 during the tracker's validation — the same
// convention /advise applies — so both observation endpoints agree.
// The batch is a one-batch round of ingest: one WAL commit of its own.
func (s *Service) ObserveContext(ctx context.Context, table string, queries []schema.TableQuery) (DriftReport, error) {
	return s.observeOne(ctx, &ingestBatch{table: table, numeric: queries})
}

// ObserveNamed is Observe for queries carrying column names; resolution
// happens inside the tracker lock, against the table's current schema.
func (s *Service) ObserveNamed(table string, named []ObservedQry) (DriftReport, error) {
	return s.ObserveNamedContext(context.Background(), table, named)
}

// ObserveNamedContext is ObserveNamed under a request context.
func (s *Service) ObserveNamedContext(ctx context.Context, table string, named []ObservedQry) (DriftReport, error) {
	return s.observeOne(ctx, &ingestBatch{table: table, named: named})
}

// observeOne runs one batch as a round of its own.
func (s *Service) observeOne(ctx context.Context, b *ingestBatch) (DriftReport, error) {
	t, err := s.tracker(b.table)
	if err != nil {
		return DriftReport{}, err
	}
	b.tracker = t
	s.ingest(ctx, []*ingestBatch{b})
	return b.rep, b.err
}

// ObserveOutcome is one batch entry's result from ObserveBatch.
type ObserveOutcome struct {
	Table string
	Rep   DriftReport
	Err   error
}

// ObserveBatch ingests many tables' observation batches from one request.
// Entries fail independently — outcome i always answers batches[i]. The
// request runs as rounds of ingest: round k holds the k-th entry of each
// table, in first-appearance order, and rounds run in order — so repeated
// entries for the SAME table apply and answer in slice order, and a
// request whose tables are all distinct is one round: one WAL commit.
// Entries for unregistered tables fail without entering a round.
func (s *Service) ObserveBatch(ctx context.Context, batches []TableObservation) []ObserveOutcome {
	out := make([]ObserveOutcome, len(batches))
	ib := make([]ingestBatch, len(batches))
	var rounds [][]*ingestBatch
	seen := make(map[string]int, len(batches)) // entries per table so far
	for i, b := range batches {
		out[i].Table = b.Table
		t, err := s.tracker(b.Table)
		if err != nil {
			out[i].Err = err
			continue
		}
		ib[i] = ingestBatch{table: b.Table, tracker: t, named: b.Queries}
		k := seen[b.Table]
		seen[b.Table]++
		if k == len(rounds) {
			rounds = append(rounds, nil)
		}
		rounds[k] = append(rounds[k], &ib[i])
	}
	for _, round := range rounds {
		s.ingest(ctx, round)
	}
	for i := range ib {
		if ib[i].tracker != nil {
			out[i].Rep, out[i].Err = ib[i].rep, ib[i].err
		}
	}
	return out
}

// ErrNotRegistered reports an operation on a table no drift tracker covers
// — never advised, or evicted past TrackerCapacity. The remedy is to
// advise the table (again).
var ErrNotRegistered = errors.New("advisor: table is not registered")

// tracker looks up the drift tracker of a registered table.
func (s *Service) tracker(table string) (*Tracker, error) {
	s.mu.Lock()
	t, ok := s.trackers.Get(table)
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q (advise on it first)", ErrNotRegistered, table)
	}
	return t, nil
}

// afterObserve books a drift recompute into the stats and the cache, and
// evicts the replay reports and resident stores the recompute invalidated.
func (s *Service) afterObserve(rep DriftReport, rec *recomputedAdvice, err error) (DriftReport, error) {
	if err != nil {
		return rep, err
	}
	if rep.Recomputed && rec != nil {
		s.recomputes.Add(1)
		s.searches.Add(1) // the tracker ran a portfolio search
		// The advice was computed for exactly rec.snapshot under
		// rec.modelKey's device, so the pairing is safe to cache even if
		// newer batches have since moved the tracker.
		snapFP := FingerprintOf(rec.snapshot)
		s.entries.Seed(adviceKey{fp: snapFP, model: rec.modelKey}, rec.advice)
		// A recompute means the advice this tracker serves MOVED: replay
		// reports cached under the fingerprint it covered until now (and
		// under the snapshot's own key, if a client replayed it while an
		// older advice entry answered it) describe a layout the daemon no
		// longer advises. Without this eviction, a post-drift /replay
		// would serve the stale layout's report from cache. The seed above
		// comes first, so a replay racing this eviction can only recompute
		// against the NEW advice.
		s.execEntries.DropFunc(func(k execKey) bool {
			return k.fp == rec.prevFP || k.fp == snapFP
		})
		// The stores those executions ran on hold the table under a layout
		// the daemon no longer advises. The layout in their key already
		// keeps them from being read again; dropping them frees the bytes.
		table, advised := rec.advice.Table.Name, layoutKey(rec.advice.Layout)
		s.stores.drop(func(k storeKey) bool {
			return k.table == table && k.model == rec.modelKey && k.layout != advised
		})
	}
	return rep, nil
}

// CurrentAdvice returns the tracked advice for a registered table.
func (s *Service) CurrentAdvice(table string) (TableAdvice, error) {
	t, err := s.tracker(table)
	if err != nil {
		return TableAdvice{}, err
	}
	return t.Advice(), nil
}

// CurrentState returns the tracked advice for a registered table together
// with the fingerprint of the workload it currently covers.
func (s *Service) CurrentState(table string) (TableAdvice, Fingerprint, error) {
	t, err := s.tracker(table)
	if err != nil {
		return TableAdvice{}, Fingerprint{}, err
	}
	advice, tw := t.State()
	return advice, FingerprintOf(tw), nil
}

// TrackedTables returns the names of tables with drift trackers, sorted.
func (s *Service) TrackedTables() []string {
	s.mu.Lock()
	names := s.trackers.Keys()
	s.mu.Unlock()
	sort.Strings(names)
	return names
}
