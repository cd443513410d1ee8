// Command knivesd is the long-running partitioning-advisor service: the
// paper's "run every algorithm, keep the cheapest layout" loop behind an
// HTTP API, with a fingerprint-keyed advice cache and O2P-backed drift
// tracking per table.
//
// Usage:
//
//	knivesd [-addr :7978] [-model hdd|ssd|mm] [-buffer MB]
//	        [-block KB] [-seek-ms MS] [-read-mbps MBPS] [-write-mbps MBPS]
//	        [-cache-line BYTES] [-miss-ns NS]
//	        [-drift-threshold 0.15] [-drift-window N]
//	        [-drift-tracking exact|sketch] [-sketch-capacity N]
//	        [-ingest-shards N] [-ingest-group N]
//	        [-migrate-window N] [-prewarm tpch|ssb] [-sf N]
//	        [-wal-dir DIR] [-snapshot-every N]
//	        [-request-timeout D] [-max-inflight N] [-max-queue N]
//	        [-retry-after D] [-drain-timeout D]
//	        [-pprof] [-slow-request D]
//
// -model resolves a device preset (hdd, ssd, mm, plus aliases like disk,
// flash, ram) the daemon prices with by default; the device flags override
// individual hardware parameters of that preset (0 = keep the preset's
// value). Requests may carry their own "model" spec with the same fields to
// price on a different device per request.
//
// -wal-dir makes the service state durable: every registration, observed
// batch, recompute, and applied-layout advance is journaled to a write-ahead
// log in that directory before it is acknowledged, and a restart replays the
// journal to exactly the state the previous process acknowledged. Without it
// the daemon keeps state in memory only, as before. -snapshot-every bounds
// replay time by compacting the WAL into a snapshot after that many events
// (negative = only the snapshot written at shutdown).
//
// -drift-tracking selects how trackers price drift per observation batch:
// "exact" (the default) prices the full retained observation window,
// "sketch" prices a windowed attribute-set frequency sketch bounded by
// -sketch-capacity counters per epoch — constant memory and per-batch cost
// regardless of stream length, with verdicts equivalent to exact while the
// stream's distinct attribute sets fit the capacity. -ingest-shards and
// -ingest-group tune the sharded observe-ingest stage that group-commits
// concurrent observation batches into shared WAL appends.
//
// The daemon always serves GET /metrics: one Prometheus text-format scrape
// covering request latency histograms, admission wait and shed counts,
// search and cache metrics, ingest group-commit sizes and queue depth,
// drift and migration timings, and — with -wal-dir — WAL append/fsync/
// snapshot durations plus the last recovery's report. -pprof additionally
// mounts net/http/pprof under GET /debug/pprof/ (off by default: heap and
// goroutine dumps are an operator's decision). -slow-request D traces every
// request and logs a span breakdown (admission wait, search-gate waits,
// per-algorithm searches, ingest) for requests that take at least D.
//
// -request-timeout, -max-inflight, and -max-queue bound the POST endpoints:
// past the in-flight and queue limits the daemon sheds with 429 +
// Retry-After instead of queueing unboundedly, and a request that exceeds
// its deadline answers 503. On SIGINT/SIGTERM the daemon stops accepting,
// drains in-flight requests for up to -drain-timeout, then snapshots and
// fsyncs the WAL before exiting.
//
// Endpoints:
//
//	POST /advise   {tables, queries} or {benchmark, sf} -> per-table advice
//	POST /replay   same workload + {max_rows, seed, workers} -> advise,
//	               lease (or load) the advised layout's store, EXECUTE
//	               every query as a σ/π/⋈ operator pipeline over an epoch
//	               snapshot, and report measured vs predicted cost (cached)
//	POST /query    /replay + {selection}: the same chain, report cache and
//	               stores; answers each plan with its per-operator cost
//	               decomposition, and keeps the store it loads resident
//	POST /observe  {batches, batch_id} -> one drift verdict + current
//	               advice per entry, redelivered IDs deduplicated;
//	               {table, queries} is a one-entry batch answered bare
//	POST /migrate  {table, window, max_rows, seed, workers} -> plan the
//	               applied->advised re-layout against the observed mix,
//	               execute + verify it on a sampled store, and advance the
//	               applied layout when it proves out (pair-cached)
//	GET  /advice?table=NAME         -> current tracked advice
//	GET  /tables                    -> registered tables
//	GET  /stats                     -> cache, drift, migration, and shed
//	                                   counters (+ recovery report when
//	                                   journaling)
//	GET  /metrics                   -> Prometheus text-format telemetry
//	GET  /healthz                   -> liveness
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"knives/internal/advisor"
	"knives/internal/cost"
	"knives/internal/devflag"
	"knives/internal/migrate"
	"knives/internal/schema"
	"knives/internal/statestore"
	"knives/internal/telemetry"
	"knives/internal/vfs"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// config is everything the flags decide.
type config struct {
	addr           string
	model          cost.Model
	driftThreshold float64
	driftWindow    int
	driftTracking  string
	sketchCapacity int
	ingestShards   int
	ingestGroup    int
	migrateWindow  int64
	prewarm        *schema.Benchmark
	walDir         string
	snapshotEvery  int
	requestTimeout time.Duration
	maxInFlight    int
	maxQueue       int
	retryAfter     time.Duration
	drainTimeout   time.Duration
	pprof          bool
	slowRequest    time.Duration
}

// parseFlags validates the command line into a config.
func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("knivesd", flag.ContinueOnError)
	addr := fs.String("addr", ":7978", "listen address")
	modelName := fs.String("model", "hdd", "cost model: hdd, ssd, or mm")
	devf := devflag.Register(fs)
	driftThreshold := fs.Float64("drift-threshold", advisor.DefaultDriftThreshold,
		"relative cost divergence past which cached advice is recomputed")
	driftWindow := fs.Int("drift-window", advisor.DefaultDriftWindow,
		"observed queries each tracker retains (0 = default, negative = unbounded; offline replays only)")
	driftTracking := fs.String("drift-tracking", advisor.TrackExact,
		"per-batch drift pricing: exact (price the full window) or sketch (bounded frequency sketch)")
	sketchCapacity := fs.Int("sketch-capacity", advisor.DefaultSketchCapacity,
		"attribute-set counters per sketch epoch under -drift-tracking=sketch")
	ingestShards := fs.Int("ingest-shards", advisor.DefaultIngestShards,
		"observe-ingest shards (tables hash to a shard; each shard group-commits its batches)")
	ingestGroup := fs.Int("ingest-group", advisor.DefaultIngestGroup,
		"max observation batches coalesced into one WAL group commit")
	migrateWindow := fs.Int64("migrate-window", migrate.DefaultWindow,
		"default break-even horizon bound for /migrate plans, in queries of the observed mix")
	prewarm := fs.String("prewarm", "", "benchmark to prewarm advice for: tpch or ssb (empty = none)")
	sf := fs.Float64("sf", 10, "scale factor for -prewarm")
	walDir := fs.String("wal-dir", "", "directory for the durable state journal (empty = in-memory state)")
	snapshotEvery := fs.Int("snapshot-every", statestore.DefaultSnapshotEvery,
		"events between automatic WAL snapshots (negative = only at shutdown)")
	requestTimeout := fs.Duration("request-timeout", 0, "per-request deadline for POST endpoints (0 = none)")
	maxInFlight := fs.Int("max-inflight", 0, "max concurrently executing POST requests (0 = unlimited)")
	maxQueue := fs.Int("max-queue", 0, "requests allowed to wait beyond -max-inflight before 429")
	retryAfter := fs.Duration("retry-after", time.Second,
		"Retry-After hint on shed (429) responses, rounded up to whole seconds")
	drainTimeout := fs.Duration("drain-timeout", 5*time.Second,
		"how long shutdown waits for in-flight requests to finish")
	pprofFlag := fs.Bool("pprof", false, "mount net/http/pprof under GET /debug/pprof/")
	slowRequest := fs.Duration("slow-request", 0,
		"trace every request and log a span breakdown for ones at least this slow (0 = off)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return config{}, err
		}
		// ContinueOnError already printed the message and usage.
		return config{}, fmt.Errorf("%w: %v", errFlagReported, err)
	}
	if !(*driftThreshold > 0) { // negated compare also rejects NaN
		// NewService would silently substitute the default; an explicit
		// flag value must not be reinterpreted.
		return config{}, fmt.Errorf("-drift-threshold must be positive (got %v)", *driftThreshold)
	}
	switch *driftTracking {
	case advisor.TrackExact, advisor.TrackSketch:
	default:
		return config{}, fmt.Errorf("-drift-tracking must be %q or %q (got %q)",
			advisor.TrackExact, advisor.TrackSketch, *driftTracking)
	}
	if *sketchCapacity <= 0 {
		return config{}, fmt.Errorf("-sketch-capacity must be positive (got %d)", *sketchCapacity)
	}
	if *ingestShards <= 0 {
		return config{}, fmt.Errorf("-ingest-shards must be positive (got %d)", *ingestShards)
	}
	if *ingestGroup <= 0 {
		return config{}, fmt.Errorf("-ingest-group must be positive (got %d)", *ingestGroup)
	}
	if *migrateWindow <= 0 || *migrateWindow > advisor.MaxMigrateWindow {
		return config{}, fmt.Errorf("-migrate-window must be in (0, %d] (got %v)", advisor.MaxMigrateWindow, *migrateWindow)
	}
	if *requestTimeout < 0 {
		return config{}, fmt.Errorf("-request-timeout must be >= 0 (got %v)", *requestTimeout)
	}
	if *maxInFlight < 0 || *maxQueue < 0 {
		return config{}, fmt.Errorf("-max-inflight and -max-queue must be >= 0")
	}
	if *maxQueue > 0 && *maxInFlight == 0 {
		return config{}, fmt.Errorf("-max-queue needs -max-inflight to bound execution first")
	}
	if *retryAfter <= 0 {
		return config{}, fmt.Errorf("-retry-after must be positive (got %v)", *retryAfter)
	}
	if *drainTimeout <= 0 {
		return config{}, fmt.Errorf("-drain-timeout must be positive (got %v)", *drainTimeout)
	}
	if *slowRequest < 0 {
		return config{}, fmt.Errorf("-slow-request must be >= 0 (got %v)", *slowRequest)
	}
	cfg := config{
		addr:           *addr,
		driftThreshold: *driftThreshold,
		driftWindow:    *driftWindow,
		driftTracking:  *driftTracking,
		sketchCapacity: *sketchCapacity,
		ingestShards:   *ingestShards,
		ingestGroup:    *ingestGroup,
		migrateWindow:  *migrateWindow,
		walDir:         *walDir,
		snapshotEvery:  *snapshotEvery,
		requestTimeout: *requestTimeout,
		maxInFlight:    *maxInFlight,
		maxQueue:       *maxQueue,
		retryAfter:     *retryAfter,
		drainTimeout:   *drainTimeout,
		pprof:          *pprofFlag,
		slowRequest:    *slowRequest,
	}
	override, err := devf()
	if err != nil {
		return config{}, err
	}
	model, err := cost.ModelByName(*modelName, override)
	if err != nil {
		return config{}, err
	}
	cfg.model = model
	if *prewarm != "" {
		b, err := schema.BenchmarkByName(*prewarm, *sf)
		if err != nil {
			return config{}, fmt.Errorf("prewarm: %w", err)
		}
		cfg.prewarm = b
	}
	return cfg, nil
}

// newService builds the advisor service for a config: durable when -wal-dir
// is set (recovering whatever a previous process journaled), in-memory
// otherwise. Prewarm runs after recovery, so recovered tables keep their
// journaled drift state and only missing tables are searched fresh. One
// telemetry registry is shared by the state store (WAL and recovery
// metrics), the service (search, cache, ingest, drift, operator metrics),
// and the HTTP server (request histograms and GET /metrics), so a single
// scrape covers the daemon end to end.
func newService(cfg config) (*advisor.Service, *telemetry.Registry, error) {
	reg := telemetry.NewRegistry()
	acfg := advisor.Config{
		Model:          cfg.model,
		DriftThreshold: cfg.driftThreshold,
		DriftWindow:    cfg.driftWindow,
		DriftTracking:  cfg.driftTracking,
		SketchCapacity: cfg.sketchCapacity,
		IngestShards:   cfg.ingestShards,
		IngestGroup:    cfg.ingestGroup,
		MigrateWindow:  cfg.migrateWindow,
		Telemetry:      reg,
	}
	if cfg.walDir != "" {
		fsys, err := vfs.Dir(cfg.walDir)
		if err != nil {
			return nil, nil, fmt.Errorf("wal dir: %w", err)
		}
		st, err := statestore.Open(fsys, statestore.Options{
			// The store's fold must trim observation logs exactly like the
			// live trackers, so the windows are one flag, not two.
			DriftWindow:   cfg.driftWindow,
			SnapshotEvery: cfg.snapshotEvery,
			Metrics:       reg,
		})
		if err != nil {
			return nil, nil, fmt.Errorf("open state store: %w", err)
		}
		acfg.Store = st
	}
	svc, err := advisor.OpenService(acfg)
	if err != nil {
		return nil, nil, err
	}
	if cfg.prewarm != nil {
		if err := svc.Prewarm(cfg.prewarm); err != nil {
			svc.Close()
			return nil, nil, fmt.Errorf("prewarm: %w", err)
		}
	}
	return svc, reg, nil
}

// serve runs the daemon on ln until ctx is canceled, then drains: stop
// accepting, let in-flight requests finish (bounded by drainTimeout), and
// only then close the service — which snapshots and fsyncs the WAL, so a
// clean shutdown restarts from a snapshot instead of a replay. Returns nil
// on a clean drain.
func serve(ctx context.Context, cfg config, svc *advisor.Service, reg *telemetry.Registry, ln net.Listener) error {
	srv := &http.Server{
		Handler: advisor.NewServerWith(svc, advisor.ServerConfig{
			RequestTimeout: cfg.requestTimeout,
			MaxInFlight:    cfg.maxInFlight,
			MaxQueue:       cfg.maxQueue,
			RetryAfter:     cfg.retryAfter,
			Telemetry:      reg,
			EnablePprof:    cfg.pprof,
			SlowRequest:    cfg.slowRequest,
		}),
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case err := <-errc:
		// The listener died on its own; still seal the store so everything
		// acknowledged so far recovers from a snapshot.
		if cerr := svc.Close(); cerr != nil {
			return errors.Join(err, cerr)
		}
		return err
	case <-ctx.Done():
	}
	drainCtx, cancel := context.WithTimeout(context.Background(), cfg.drainTimeout)
	defer cancel()
	drainErr := srv.Shutdown(drainCtx)
	// Close AFTER the drain: in-flight requests journal right up to their
	// last write, and the final snapshot must include them. Close even when
	// the drain timed out — whatever was acknowledged is on disk either way,
	// the snapshot just compacts it.
	if err := svc.Close(); err != nil {
		return errors.Join(drainErr, fmt.Errorf("close state store: %w", err))
	}
	if drainErr != nil {
		return fmt.Errorf("shutdown: %w", drainErr)
	}
	return nil
}

// errFlagReported marks a flag-parse failure the flag package has already
// written to stderr, so run() must not print it a second time.
var errFlagReported = errors.New("flag error already reported")

func run(args []string) int {
	cfg, err := parseFlags(args)
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		if !errors.Is(err, errFlagReported) {
			fmt.Fprintf(os.Stderr, "knivesd: %v\n", err)
		}
		return 2
	}
	svc, reg, err := newService(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "knivesd: %v\n", err)
		return 1
	}
	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		svc.Close()
		fmt.Fprintf(os.Stderr, "knivesd: %v\n", err)
		return 1
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	fmt.Fprintf(os.Stderr, "knivesd: listening on %s\n", ln.Addr())
	done := make(chan error, 1)
	go func() { done <- serve(ctx, cfg, svc, reg, ln) }()

	var serveErr error
	select {
	case serveErr = <-done:
		stop()
	case <-ctx.Done():
		// Release the signal capture first, so a second SIGTERM during a
		// stuck drain kills the process instead of being swallowed.
		stop()
		serveErr = <-done
	}
	if serveErr != nil && !errors.Is(serveErr, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "knivesd: %v\n", serveErr)
		return 1
	}
	return 0
}
