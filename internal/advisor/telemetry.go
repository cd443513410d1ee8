package advisor

import (
	"time"

	"knives/internal/algo"
	"knives/internal/replay"
	"knives/internal/telemetry"
)

// svcMetrics holds the service's telemetry handles. The zero value (no
// registry configured) leaves every handle nil, and the telemetry types are
// nil-receiver safe, so instrumentation points never branch on "is
// telemetry enabled" — an unbound service pays a nil check per point and
// nothing else.
type svcMetrics struct {
	// Request-path latency, split by cache outcome so the flat hit path
	// and the search-dominated miss path never share a distribution.
	adviseHit  *telemetry.Histogram
	adviseMiss *telemetry.Histogram
	// search times the portfolio fan-out alone (the miss path minus
	// caching and registration).
	search *telemetry.Histogram
	// Per-knife accounting from every portfolio search (advise misses and
	// drift recomputes), keyed by algorithm name: which knife owns the
	// search time, and how many candidates it priced for it.
	knifeSearch     map[string]*telemetry.Histogram
	knifeCandidates map[string]*telemetry.Counter

	// Ingest: per-batch wait for its round's commit and drift verdict,
	// round sizes in batches and queries, and the per-batch drift check
	// (recompute is the subset that actually moved advice).
	ingestWait     *telemetry.Histogram
	groupBatches   *telemetry.Histogram
	groupQueries   *telemetry.Histogram
	driftCheck     *telemetry.Histogram
	driftRecompute *telemetry.Histogram

	// migrateExec times migrateOnce: plan + sampled execute-and-verify.
	migrateExec *telemetry.Histogram

	// materialize times building one store (sample, generate, write pages)
	// — the half of a store miss that is not execution.
	materialize *telemetry.Histogram

	// Per-operator accounting from /query executions, keyed by operator
	// kind ("scan", "select", "join", "project").
	opRows map[string]*telemetry.Counter
	opSim  map[string]*telemetry.Histogram

	// Per-query execution telemetry from /query: result rows, wall-clock
	// pipeline execution time, and batch fill ratios.
	queryRows *telemetry.Counter
	queryExec *telemetry.Histogram
	batchFill *telemetry.Histogram
}

// operatorKinds is the closed set of operator labels bound at registration;
// OpStats.Op values outside it (there are none today) would be dropped
// rather than minting unbounded label values.
var operatorKinds = []string{"scan", "select", "join", "project"}

// bind registers the service's metrics on reg: the histograms above, plus
// read-at-scrape bindings for the counters the Service already maintains
// atomically (no hot-path double-writes) and the cache/tracker gauges. It
// also installs the process-wide search-gate wait observer — last service
// bound wins, matching the gate's own process-wide scope.
func (m *svcMetrics) bind(reg *telemetry.Registry, s *Service) {
	reg.SetHelp("knives_advise_hit_seconds", "Advise latency answered from the fingerprint cache.")
	reg.SetHelp("knives_advise_miss_seconds", "Advise latency that ran the portfolio search.")
	reg.SetHelp("knives_search_seconds", "Portfolio fan-out time per search.")
	reg.SetHelp("knives_gate_wait_seconds", "Contended waits for a process-wide search slot.")
	reg.SetHelp("knives_ingest_wait_seconds", "Observe batch wait: round commit + drift verdict.")
	reg.SetHelp("knives_ingest_group_batches", "Observation batches per group commit (one observe round).")
	reg.SetHelp("knives_ingest_group_queries", "Queries carried per group commit.")
	reg.SetHelp("knives_drift_check_seconds", "Drift check time per observation batch (shadow pricing).")
	reg.SetHelp("knives_drift_recompute_seconds", "Drift checks that recomputed advice (portfolio rerun included).")
	reg.SetHelp("knives_migrate_exec_seconds", "Migration plan + sampled execute-and-verify time.")
	m.adviseHit = reg.Histogram("knives_advise_hit_seconds")
	m.adviseMiss = reg.Histogram("knives_advise_miss_seconds")
	m.search = reg.Histogram("knives_search_seconds")
	m.ingestWait = reg.Histogram("knives_ingest_wait_seconds")
	m.groupBatches = reg.Histogram("knives_ingest_group_batches")
	m.groupQueries = reg.Histogram("knives_ingest_group_queries")
	m.driftCheck = reg.Histogram("knives_drift_check_seconds")
	m.driftRecompute = reg.Histogram("knives_drift_recompute_seconds")
	m.migrateExec = reg.Histogram("knives_migrate_exec_seconds")
	reg.SetHelp("knives_materialize_seconds", "Time materializing one store for an executed report (a store miss).")
	m.materialize = reg.Histogram("knives_materialize_seconds")

	m.knifeSearch = make(map[string]*telemetry.Histogram)
	m.knifeCandidates = make(map[string]*telemetry.Counter)
	reg.SetHelp("knives_knife_search_seconds", "Search time of one portfolio member on one table, by algorithm.")
	reg.SetHelp("knives_knife_candidates_total", "Candidate layouts evaluated by portfolio members, by algorithm.")
	for _, name := range PortfolioNames() {
		m.knifeSearch[name] = reg.Histogram(`knives_knife_search_seconds{algo="` + name + `"}`)
		m.knifeCandidates[name] = reg.Counter(`knives_knife_candidates_total{algo="` + name + `"}`)
	}

	m.opRows = make(map[string]*telemetry.Counter, len(operatorKinds))
	m.opSim = make(map[string]*telemetry.Histogram, len(operatorKinds))
	reg.SetHelp("knives_operator_rows_total", "Rows emitted by executed plan operators, by operator kind.")
	reg.SetHelp("knives_operator_sim_seconds", "Simulated execution time per operator, by operator kind.")
	for _, op := range operatorKinds {
		m.opRows[op] = reg.Counter(`knives_operator_rows_total{op="` + op + `"}`)
		m.opSim[op] = reg.Histogram(`knives_operator_sim_seconds{op="` + op + `"}`)
	}

	reg.SetHelp("knives_query_rows_total", "Result rows emitted by /query pipeline executions.")
	reg.SetHelp("knives_query_exec_seconds", "Wall-clock pipeline execution time per /query query.")
	reg.SetHelp("knives_query_batch_fill_ratio", "Batch fill ratios (surviving rows over batch capacity).")
	m.queryRows = reg.Counter("knives_query_rows_total")
	m.queryExec = reg.Histogram("knives_query_exec_seconds")
	m.batchFill = reg.Histogram("knives_query_batch_fill_ratio")

	gateWait := reg.Histogram("knives_gate_wait_seconds")
	algo.SetGateWaitObserver(func(d time.Duration) { gateWait.Observe(d.Seconds()) })

	// The service's own monotonic counters, read at scrape time.
	reg.SetHelp("knives_requests_total", "Table advice requests answered.")
	reg.CounterFunc("knives_requests_total", s.requests.Load)
	reg.CounterFunc("knives_advice_hits_total", s.hits.Load)
	reg.CounterFunc("knives_searches_total", s.searches.Load)
	reg.CounterFunc("knives_recomputes_total", s.recomputes.Load)
	reg.CounterFunc("knives_replays_total", s.replayRoute.requests.Load)
	reg.CounterFunc("knives_replay_hits_total", s.replayRoute.hits.Load)
	reg.CounterFunc("knives_queries_total", s.queryRoute.requests.Load)
	reg.CounterFunc("knives_query_hits_total", s.queryRoute.hits.Load)
	reg.SetHelp("knives_store_hits_total", "Executions (/replay, /query) that ran on an already-resident store.")
	reg.CounterFunc("knives_store_hits_total", s.stores.hits.Load)
	reg.SetHelp("knives_store_materializations_total", "Store materializations run for executed reports (/replay, /query); failed ones included.")
	reg.CounterFunc("knives_store_materializations_total", s.stores.materializations.Load)
	reg.CounterFunc("knives_migrations_total", s.migrations.Load)
	reg.CounterFunc("knives_migrate_hits_total", s.migrateHits.Load)
	reg.SetHelp("knives_exactness_failures_total", "Reports returned by /replay, /query or /migrate with exact / verify_exact false; must stay 0.")
	reg.CounterFunc("knives_exactness_failures_total", s.inexact.Load)
	reg.CounterFunc("knives_observed_queries_total", s.observedQueries.Load)
	reg.CounterFunc("knives_observe_batches_total", s.observeBatches.Load)
	reg.CounterFunc("knives_ingest_groups_total", s.ingestGroups.Load)
	reg.CounterFunc("knives_duplicate_batches_total", s.observeDups.Load)

	reg.GaugeFunc("knives_cached_entries", func() float64 { return float64(s.entries.Len()) })
	reg.SetHelp("knives_cached_replays", "Cached executed reports (one cache behind /replay and /query).")
	reg.GaugeFunc("knives_cached_replays", func() float64 { return float64(s.execEntries.Len()) })
	reg.GaugeFunc("knives_cached_migrations", func() float64 { return float64(s.migrateEntries.Len()) })
	reg.SetHelp("knives_resident_stores", "Materialized tables kept loaded between requests (loaded by a /query, leased by any executed report).")
	reg.GaugeFunc("knives_resident_stores", func() float64 { n, _ := s.stores.resident(); return float64(n) })
	reg.SetHelp("knives_resident_store_bytes", "Page bytes of the resident stores (bounded by a fixed budget).")
	reg.GaugeFunc("knives_resident_store_bytes", func() float64 { _, b := s.stores.resident(); return float64(b) })
	reg.GaugeFunc("knives_tracked_tables", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(s.trackers.Len())
	})
}

// recordSearch folds one portfolio member's finished search in. The label set
// is PortfolioNames(), bound at registration; a nil receiver (a search outside
// any service) or an unbound service records nothing.
func (m *svcMetrics) recordSearch(name string, st algo.Stats) {
	if m == nil {
		return
	}
	m.knifeSearch[name].Observe(st.Duration.Seconds())
	m.knifeCandidates[name].Add(st.Candidates)
}

// recordExec folds one /query execution's telemetry in: the per-operator
// accounting (unknown operator kinds are dropped — bounded label set), and
// per query the result rows, wall-clock execution seconds, and batch fill
// ratios. Like every instrumentation point, an unbound service
// pays one nil check.
func (m *svcMetrics) recordExec(rep *replay.OperatorReplay) {
	if m.queryRows == nil {
		return
	}
	for _, plan := range rep.Ops {
		for _, st := range plan {
			m.opRows[st.Op].Add(st.RowsOut)
			m.opSim[st.Op].Observe(st.SimTime)
		}
	}
	for i := range rep.ResultRows {
		m.queryRows.Add(rep.ResultRows[i])
	}
	for _, s := range rep.ExecSeconds {
		m.queryExec.Observe(s)
	}
	for _, ratios := range rep.FillRatios {
		for _, r := range ratios {
			m.batchFill.Observe(r)
		}
	}
}
