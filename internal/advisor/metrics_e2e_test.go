package advisor

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"knives/internal/faultinject"
	"knives/internal/statestore"
	"knives/internal/telemetry"
	"knives/internal/vfs"
)

// Regression: a request whose deadline expires answered 503 WITHOUT the
// Retry-After hint, even though the client's RetryPolicy honors it on 503
// exactly like on 429. The hint must ride every 503.
func TestServer503RetryAfterOnExpiredDeadline(t *testing.T) {
	svc, err := OpenService(Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServerWith(svc, ServerConfig{
		RequestTimeout: 50 * time.Millisecond,
		RetryAfter:     3 * time.Second,
	}))
	defer ts.Close()
	defer holdSearchGate(t)()

	resp, err := postAdvise(ts)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("deadline-bound request: status %d, want 503", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "3" {
		t.Errorf("503 Retry-After = %q, want \"3\"", got)
	}
}

// Regression for the observe path: a request that applied nothing because
// its journal append failed answers 503, and that 503 must carry
// Retry-After too. Write #1 is the registration's EvAdviseCommit append;
// write #2 — scheduled to fail — is the first observation batch's group
// commit.
func TestServer503RetryAfterOnJournalError(t *testing.T) {
	fsys, err := vfs.Dir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	inj := faultinject.New(fsys, faultinject.FailNthWrite(2))
	st, err := statestore.Open(inj, statestore.Options{DriftWindow: 16, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := OpenService(Config{Store: st, DriftWindow: 16})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServerWith(svc, ServerConfig{RetryAfter: 2 * time.Second}))
	defer ts.Close()

	if resp, err := postAdvise(ts); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("registering advise: status %v, err %v", resp.StatusCode, err)
	}
	body := `{"batch_id":"id-1","batches":[{"table":"events","queries":[{"attrs":["a","c"]}]}]}`
	post := func() (*http.Response, ObserveResponse) {
		t.Helper()
		resp, err := ts.Client().Post(ts.URL+"/observe", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var or ObserveResponse
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&or); err != nil {
				t.Fatal(err)
			}
		}
		return resp, or
	}
	resp, _ := post()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("observe through failed append: status %d, want 503", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "2" {
		t.Errorf("503 Retry-After = %q, want \"2\"", got)
	}
	if inj.Injected() == 0 {
		t.Fatal("journal fault never fired; the 503 came from somewhere else")
	}
	// The failed request applied nothing, so its batch ID stays free: the
	// redelivery ingests, and only a third delivery is a duplicate.
	for i, wantDup := range []bool{false, true} {
		resp, or := post()
		if resp.StatusCode != http.StatusOK || len(or.Verdicts) != 1 || or.Verdicts[0].Status != http.StatusOK {
			t.Fatalf("redelivery %d: status %d, verdicts %+v", i+1, resp.StatusCode, or.Verdicts)
		}
		if or.Duplicate != wantDup {
			t.Errorf("redelivery %d: duplicate=%v, want %v", i+1, or.Duplicate, wantDup)
		}
	}
	if got := svc.Stats().ObservedQueries; got != 1 {
		t.Errorf("ObservedQueries = %d after a failed delivery and two redeliveries, want 1", got)
	}
	if err := svc.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// sampleValue finds one sample line ("name 12" or "name{labels} 12") in a
// Prometheus exposition and returns its value.
func sampleValue(t *testing.T, expo, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(expo, "\n") {
		if strings.HasPrefix(line, name+" ") {
			v, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimPrefix(line, name+" ")), 64)
			if err != nil {
				t.Fatalf("sample %s: %v", name, err)
			}
			return v
		}
	}
	t.Fatalf("no sample %q in exposition:\n%s", name, expo)
	return 0
}

// telemetryServer builds the full wired daemon the way cmd/knivesd does:
// one registry shared by the statestore (WAL metrics), the service (cache,
// search, ingest metrics), and the server (request histograms, /metrics).
func telemetryServer(t *testing.T, reg *telemetry.Registry) (*httptest.Server, *Service) {
	t.Helper()
	fsys, err := vfs.Dir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	st, err := statestore.Open(fsys, statestore.Options{DriftWindow: 16, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := OpenService(Config{Store: st, DriftWindow: 16, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServerWith(svc, ServerConfig{
		Telemetry:   reg,
		EnablePprof: true,
		// Every request is "slow" at 1ns: the tracing + render path runs on
		// each request, logging into the void.
		SlowRequest: time.Nanosecond,
		SlowLog:     log.New(io.Discard, "", 0),
	}))
	t.Cleanup(ts.Close)
	return ts, svc
}

// The acceptance smoke: a fully wired daemon serves /metrics in strict
// Prometheus text format, with non-zero WAL fsync, ingest group-size, and
// request-latency histograms after an advise + a few observes — and /stats
// carries the store's recovery report.
func TestServerMetricsEndToEnd(t *testing.T) {
	reg := telemetry.NewRegistry()
	ts, svc := telemetryServer(t, reg)
	client := NewClient(ts.URL)
	client.HTTPClient = ts.Client()

	ctx := context.Background()
	if _, err := client.Advise(ctx, eventsRequest()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := observeVia(ctx, client, "events", ObservedQry{Attrs: []string{"a", "c"}}); err != nil {
			t.Fatalf("observe %d: %v", i, err)
		}
	}
	// One vector-mode /query so the execution metrics (rows, exec-seconds,
	// batch fill ratios) carry samples in the scrape below.
	qreq := queryRequest()
	qreq.Exec = "vector"
	qres, err := client.Query(ctx, qreq)
	if err != nil {
		t.Fatal(err)
	}
	var queryRows int64
	for _, p := range qres.Reports[0].Pipelines {
		queryRows += p.ResultRows
	}
	if queryRows == 0 {
		t.Fatal("vector /query emitted no rows; fill-ratio samples would be vacuous")
	}
	// The same /query under a selection: a different execution (the exec
	// cache misses) of the table the first one left resident.
	qreq.Selection = &SelectionSpec{Table: "events", Column: "ts", Bound: 1263}
	if _, err := client.Query(ctx, qreq); err != nil {
		t.Fatal(err)
	}

	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("/metrics Content-Type = %q", ct)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	expo := string(b)
	if err := telemetry.CheckExposition(expo); err != nil {
		t.Fatalf("exposition fails strict check: %v\n%s", err, expo)
	}

	for name, min := range map[string]float64{
		"knives_requests_total":                              1,
		"knives_searches_total":                              1,
		"knives_observe_batches_total":                       3,
		"knives_wal_fsync_seconds_count":                     1,
		"knives_wal_append_seconds_count":                    1,
		"knives_ingest_group_batches_count":                  1,
		"knives_ingest_wait_seconds_count":                   3,
		"knives_drift_check_seconds_count":                   1,
		"knives_advise_miss_seconds_count":                   1,
		"knives_search_seconds_count":                        1,
		`knives_http_request_seconds_count{path="/advise"}`:  1,
		`knives_http_request_seconds_count{path="/observe"}`: 3,
		`knives_http_request_seconds_count{path="/query"}`:   1,
		"knives_tracked_tables":                              1,
		// The vector /query's per-query execution telemetry: one sample per
		// pipeline in the exec histogram, the summed result rows in the
		// counter, and at least one batch-fill observation per pipeline.
		"knives_query_rows_total":               float64(queryRows),
		"knives_query_exec_seconds_count":       float64(len(qres.Reports[0].Pipelines)),
		"knives_query_batch_fill_ratio_count":   float64(len(qres.Reports[0].Pipelines)),
		`knives_operator_rows_total{op="scan"}`: 1,
		// /query is counted like /replay, and the exec cache — the largest
		// objects in the daemon — shows in the cached-replays gauge.
		"knives_queries_total":  2,
		"knives_cached_replays": 2,
		"knives_cached_entries": 1,
		// The second /query ran on the store the first one materialized.
		"knives_store_hits_total":          1,
		"knives_materialize_seconds_count": 1,
		"knives_resident_stores":           1,
		"knives_resident_store_bytes":      600 * 304,
	} {
		if got := sampleValue(t, expo, name); got < min {
			t.Errorf("%s = %v, want >= %v", name, got, min)
		}
	}
	if got := sampleValue(t, expo, "knives_store_materializations_total"); got != 1 {
		t.Errorf("two /query selections over one table ran %v materializations, want 1", got)
	}
	// Both /query reports left exact: the series exists (sampleValue fails
	// the test on a missing one) and reads 0.
	if got := sampleValue(t, expo, "knives_exactness_failures_total"); got != 0 {
		t.Errorf("knives_exactness_failures_total = %v, want 0", got)
	}
	// Every fsync carried at least one caller's events; both series count
	// what they always counted, however many callers shared a commit.
	fsyncs := sampleValue(t, expo, "knives_wal_fsync_seconds_count")
	if callers := sampleValue(t, expo, "knives_wal_commit_callers_total"); !(callers >= fsyncs && fsyncs > 0) {
		t.Errorf("wal commit callers %v, fsyncs %v: want callers >= fsyncs > 0", callers, fsyncs)
	}
	if got := sampleValue(t, expo, "knives_wal_commit_events_count"); got != fsyncs {
		t.Errorf("knives_wal_commit_events_count = %v, want one observation per fsync (%v)", got, fsyncs)
	}
	// Fill ratios land in (0, 1].
	if got := sampleValue(t, expo, "knives_query_batch_fill_ratio_sum"); got <= 0 ||
		got > sampleValue(t, expo, "knives_query_batch_fill_ratio_count") {
		t.Errorf("batch fill ratio sum %v outside (0, count]", got)
	}
	// The recovery gauges exist from startup (an empty store recovered
	// nothing — the gauge is the report, zero included).
	if got := sampleValue(t, expo, "knives_recovery_records"); got != 0 {
		t.Errorf("fresh store recovered %v records", got)
	}

	// The same report rides /stats as JSON for journaling services.
	st, err := client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Recovery == nil {
		t.Fatal("journaling service /stats has no recovery report")
	}
	// cached_replays sums both report caches: the two /query executions
	// above, no /replay report yet.
	if st.CachedReplays != 2 || st.Replays != 0 {
		t.Errorf("/stats cached_replays = %d (replays %d), want the exec cache's 2 entries", st.CachedReplays, st.Replays)
	}
	if st.ResidentStores != 1 || st.ResidentStoreBytes < 600*304 {
		t.Errorf("/stats resident_stores = %d (%d bytes), want the one store both executions shared",
			st.ResidentStores, st.ResidentStoreBytes)
	}

	// pprof answers on its operator-enabled mount.
	pp, err := ts.Client().Get(ts.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	pp.Body.Close()
	if pp.StatusCode != http.StatusOK {
		t.Errorf("/debug/pprof/cmdline: status %d", pp.StatusCode)
	}

	if err := svc.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// Which knife owns a search: one /advise miss puts exactly one sample under
// each portfolio member in knives_knife_search_seconds and its candidates in
// knives_knife_candidates_total; a hit runs no knife and adds nothing.
func TestServerKnifeMetricsPerAdviseMiss(t *testing.T) {
	reg := telemetry.NewRegistry()
	ts, svc := telemetryServer(t, reg)
	client := NewClient(ts.URL)
	client.HTTPClient = ts.Client()

	scrape := func() string {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if err := telemetry.CheckExposition(string(b)); err != nil {
			t.Fatalf("exposition fails strict check: %v", err)
		}
		return string(b)
	}
	// The label set is fixed at registration: a series per served knife
	// exists, at zero, before any search.
	expo := scrape()
	for _, name := range PortfolioNames() {
		if got := sampleValue(t, expo, `knives_knife_search_seconds_count{algo="`+name+`"}`); got != 0 {
			t.Errorf("%s: %v searches before any request", name, got)
		}
	}
	for i, wantCached := range []bool{false, true} {
		resp, err := client.Advise(context.Background(), eventsRequest())
		if err != nil {
			t.Fatal(err)
		}
		if resp.Advice[0].Cached != wantCached {
			t.Fatalf("advise %d: cached = %v", i, resp.Advice[0].Cached)
		}
		expo = scrape()
		for _, name := range PortfolioNames() {
			if got := sampleValue(t, expo, `knives_knife_search_seconds_count{algo="`+name+`"}`); got != 1 {
				t.Errorf("%s: %v search samples after one miss (advise %d), want 1", name, got, i)
			}
			if got := sampleValue(t, expo, `knives_knife_candidates_total{algo="`+name+`"}`); got < 1 {
				t.Errorf("%s: %v candidates after one miss", name, got)
			}
		}
	}
	// HillClimb's count is exact: the column layout, then its merges of the
	// four columns' 6 pairs, of {ab, c, d}'s 3 and of {ab, cd}'s 1.
	if got := sampleValue(t, expo, `knives_knife_candidates_total{algo="HillClimb"}`); got != 11 {
		t.Errorf("HillClimb candidates = %v, want 11", got)
	}
	if err := svc.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// The -race gate for the telemetry layer: scrapes, stats reads, and
// observation ingest hammer the same registry concurrently; every scrape
// must stay parseable under the strict checker.
func TestServerConcurrentScrapeWhileIngesting(t *testing.T) {
	reg := telemetry.NewRegistry()
	ts, svc := telemetryServer(t, reg)
	client := NewClient(ts.URL)
	client.HTTPClient = ts.Client()

	ctx := context.Background()
	if _, err := client.Advise(ctx, eventsRequest()); err != nil {
		t.Fatal(err)
	}

	const writers, scrapers, rounds = 4, 4, 8
	var wg sync.WaitGroup
	errs := make(chan error, writers+scrapers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				_, err := observeVia(ctx, client, "events", ObservedQry{Attrs: []string{"a", "c"}, Weight: float64(w + 1)})
				if err != nil {
					errs <- fmt.Errorf("writer %d round %d: %w", w, r, err)
					return
				}
			}
		}(w)
	}
	for s := 0; s < scrapers; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				resp, err := ts.Client().Get(ts.URL + "/metrics")
				if err != nil {
					errs <- fmt.Errorf("scraper %d round %d: %w", s, r, err)
					return
				}
				b, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					errs <- err
					return
				}
				if err := telemetry.CheckExposition(string(b)); err != nil {
					errs <- fmt.Errorf("scrape %d/%d unparseable: %w", s, r, err)
					return
				}
				if _, err := client.Stats(ctx); err != nil {
					errs <- err
					return
				}
			}
		}(s)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := sampleValue(t, reg.String(), "knives_observe_batches_total"); got != writers*rounds {
		t.Errorf("observe_batches_total = %v, want %d", got, writers*rounds)
	}
	if err := svc.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}
