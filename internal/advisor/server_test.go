package advisor

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func newTestServer(t *testing.T, cfg Config) (*httptest.Server, *Service, *Client) {
	t.Helper()
	svc := NewService(cfg)
	ts := httptest.NewServer(NewServer(svc))
	t.Cleanup(ts.Close)
	c := NewClient(ts.URL)
	c.HTTPClient = ts.Client()
	return ts, svc, c
}

// eventsRequest is the wire form of the wideTable co-access workload.
func eventsRequest() AdviseRequest {
	return AdviseRequest{
		Tables: []TableSpec{{
			Name: "events",
			Rows: 1_000_000,
			Columns: []ColumnSpec{
				{Name: "a", Kind: "char", Size: 100},
				{Name: "b", Kind: "char", Size: 100},
				{Name: "c", Kind: "char", Size: 100},
				{Name: "d", Kind: "char", Size: 100},
			},
		}},
		Queries: []QuerySpec{
			{ID: "q1", Tables: map[string][]string{"events": {"a", "b"}}},
			{ID: "q2", Tables: map[string][]string{"events": {"a", "b"}}},
			{ID: "q3", Tables: map[string][]string{"events": {"c", "d"}}},
		},
	}
}

func TestServerAdviseEndToEnd(t *testing.T) {
	_, _, client := newTestServer(t, Config{})
	resp, err := client.Advise(context.Background(), eventsRequest())
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Advice) != 1 {
		t.Fatalf("advice for %d tables, want 1", len(resp.Advice))
	}
	adv := resp.Advice[0]
	if adv.Table != "events" || adv.Cached {
		t.Errorf("first advice: %+v", adv)
	}
	if adv.Cost > adv.RowCost || adv.Cost > adv.ColumnCost {
		t.Errorf("advice cost %v worse than baselines (row %v, column %v)", adv.Cost, adv.RowCost, adv.ColumnCost)
	}
	if len(adv.PerAlgorithm) != len(PortfolioNames()) {
		t.Errorf("PerAlgorithm has %d entries, want %d", len(adv.PerAlgorithm), len(PortfolioNames()))
	}
	if len(adv.Fingerprint) != 64 {
		t.Errorf("fingerprint %q is not 32 hex bytes", adv.Fingerprint)
	}

	again, err := client.Advise(context.Background(), eventsRequest())
	if err != nil {
		t.Fatal(err)
	}
	if !again.Advice[0].Cached {
		t.Error("repeated request not served from cache")
	}
	if again.Advice[0].Cost != adv.Cost || again.Advice[0].Fingerprint != adv.Fingerprint {
		t.Error("cached advice differs from first answer")
	}
}

// Regression: a table with 22 referenced columns answered HTTP 500 "trojan:
// table wide has 22 referenced attrs, cap is 20" although five knives can lay
// it out. One knife declining an input is not the request's failure: the
// member is left out, the rest of the portfolio answers.
func TestServerAdviseWiderThanTrojansCap(t *testing.T) {
	ts, _, _ := newTestServer(t, Config{})
	wide := TableSpec{Name: "wide", Rows: 1_000_000}
	var all []string
	for i := 0; i < 22; i++ {
		name := fmt.Sprintf("c%d", i)
		wide.Columns = append(wide.Columns, ColumnSpec{Name: name, Kind: "int", Size: 4})
		all = append(all, name)
	}
	body, err := json.Marshal(AdviseRequest{
		Tables: []TableSpec{wide},
		Queries: []QuerySpec{
			{ID: "q1", Tables: map[string][]string{"wide": all[:11]}},
			{ID: "q2", Tables: map[string][]string{"wide": all[11:]}},
			{ID: "q3", Tables: map[string][]string{"wide": all[:3]}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+"/advise", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("22 referenced columns: status %d (%s), want 200", resp.StatusCode, b)
	}
	var out AdviseResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	adv := out.Advice[0]
	if _, ok := adv.PerAlgorithm["Trojan"]; ok || len(adv.PerAlgorithm) != len(PortfolioNames())-1 {
		t.Errorf("per_algorithm = %v, want every knife but Trojan", adv.PerAlgorithm)
	}
	seen := map[string]bool{}
	for _, part := range adv.Layout {
		for _, col := range part {
			if seen[col] {
				t.Errorf("column %s laid out twice: %v", col, adv.Layout)
			}
			seen[col] = true
		}
	}
	if len(seen) != len(all) {
		t.Errorf("layout covers %d of %d columns: %v", len(seen), len(all), adv.Layout)
	}
	if adv.Cost > adv.ColumnCost {
		t.Errorf("advice cost %v worse than the column baseline %v", adv.Cost, adv.ColumnCost)
	}
}

func TestServerBenchmarkShorthand(t *testing.T) {
	_, _, client := newTestServer(t, Config{})
	resp, err := client.Advise(context.Background(), AdviseRequest{Benchmark: "tpch", ScaleFactor: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Advice) != 8 {
		t.Errorf("TPC-H advice for %d tables, want 8", len(resp.Advice))
	}
}

// The acceptance load test: >= 8 parallel clients hammering /advise with a
// mix of fingerprints, plus /observe and /stats traffic, all against one
// service. Run under -race this doubles as the data-race gate.
func TestServerConcurrentAdviseLoad(t *testing.T) {
	_, svc, client := newTestServer(t, Config{DriftWindow: 16})

	// Three distinct workloads: same table, different query streams.
	reqs := make([]AdviseRequest, 3)
	for i := range reqs {
		reqs[i] = eventsRequest()
		for j := 0; j <= i; j++ {
			reqs[i].Queries = append(reqs[i].Queries, QuerySpec{
				Tables: map[string][]string{"events": {"a", "c"}},
			})
		}
	}

	const clients = 10
	const perClient = 6
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			ctx := context.Background()
			for r := 0; r < perClient; r++ {
				resp, err := client.Advise(ctx, reqs[(c+r)%len(reqs)])
				if err != nil {
					errs[c] = err
					return
				}
				if len(resp.Advice) != 1 {
					continue
				}
				if _, err := observeVia(ctx, client, "events", ObservedQry{Attrs: []string{"a", "b"}}); err != nil {
					errs[c] = err
					return
				}
				if _, err := client.Stats(ctx); err != nil {
					errs[c] = err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for c, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", c, err)
		}
	}

	st := svc.Stats()
	if st.Requests != clients*perClient {
		t.Errorf("requests = %d, want %d", st.Requests, clients*perClient)
	}
	// Only the three distinct fingerprints (plus any drift recomputes) may
	// have searched; everything else must be cache hits.
	maxSearches := int64(len(reqs)) + st.Recomputes
	if st.Searches > maxSearches {
		t.Errorf("searches = %d, want <= %d (cache must absorb repeats)", st.Searches, maxSearches)
	}
	if st.Hits != st.Requests-int64(len(reqs)) {
		t.Errorf("hits = %d, want %d", st.Hits, st.Requests-int64(len(reqs)))
	}
}

// Drift over HTTP: the Section 6.3 scenario end to end.
func TestServerObserveDriftRecomputes(t *testing.T) {
	_, svc, client := newTestServer(t, Config{DriftThreshold: 0.15, DriftWindow: 8})
	ctx := context.Background()
	if _, err := client.Advise(ctx, eventsRequest()); err != nil {
		t.Fatal(err)
	}
	var recomputed bool
	for batch := 0; batch < 8 && !recomputed; batch++ {
		resp, err := observeVia(ctx, client, "events",
			ObservedQry{Attrs: []string{"a"}},
			ObservedQry{Attrs: []string{"b"}},
		)
		if err != nil {
			t.Fatal(err)
		}
		recomputed = resp.Drift.Recomputed
	}
	if !recomputed {
		t.Fatal("drifted stream never recomputed the advice")
	}
	if st := svc.Stats(); st.Recomputes < 1 {
		t.Errorf("stats: %+v", st)
	}
	adv, err := client.Advice(ctx, "events")
	if err != nil {
		t.Fatal(err)
	}
	for _, part := range adv.Layout {
		if len(part) > 1 && strings.Contains(strings.Join(part, " "), "a") && strings.Contains(strings.Join(part, " "), "b") {
			t.Errorf("layout %v still co-locates a and b after drift", adv.Layout)
		}
	}
}

func TestServerRejectsBadRequests(t *testing.T) {
	ts, _, client := newTestServer(t, Config{})
	ctx := context.Background()

	post := func(path, body string) int {
		resp, err := ts.Client().Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := post("/advise", "{not json"); got != http.StatusBadRequest {
		t.Errorf("malformed body: status %d", got)
	}
	if got := post("/advise", `{"benchmark":"tpch","sf":0.01}{"benchmark":"ssb"}`); got != http.StatusBadRequest {
		t.Errorf("trailing JSON document: status %d", got)
	}
	if got := post("/advise", `{"tables":[]}`); got != http.StatusBadRequest {
		t.Errorf("empty tables: status %d", got)
	}
	if got := post("/advise", `{"benchmark":"oracle"}`); got != http.StatusBadRequest {
		t.Errorf("unknown benchmark: status %d", got)
	}
	if got := post("/advise", `{"unknown_field":1}`); got != http.StatusBadRequest {
		t.Errorf("unknown field: status %d", got)
	}
	if v, _ := observeVia(ctx, client, "ghost"); v.Status != http.StatusNotFound {
		t.Errorf("observe unknown table: verdict %d, want 404", v.Status)
	}

	if _, err := client.Advice(ctx, "ghost"); err == nil {
		t.Error("advice for unknown table succeeded")
	}
	resp, err := ts.Client().Get(ts.URL + "/advice")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing table param: status %d", resp.StatusCode)
	}

	// Queries referencing unknown columns or tables fail validation.
	bad := eventsRequest()
	bad.Queries[0].Tables["events"] = []string{"nope"}
	if _, err := client.Advise(ctx, bad); err == nil {
		t.Error("unknown column accepted")
	}

	// Negative weights would invert the cost arithmetic; the trust
	// boundary must reject them on both ingestion paths.
	negative := eventsRequest()
	negative.Queries[0].Weight = -5
	if _, err := client.Advise(ctx, negative); err == nil {
		t.Error("negative query weight accepted by /advise")
	}
	if _, err := client.Advise(ctx, eventsRequest()); err != nil {
		t.Fatal(err)
	}
	if v, _ := observeVia(ctx, client, "events", ObservedQry{Attrs: []string{"a"}, Weight: -1}); v.Status != http.StatusBadRequest {
		t.Errorf("negative query weight answered verdict %d by /observe, want 400", v.Status)
	}
}

func TestServerHealthAndTables(t *testing.T) {
	ts, _, client := newTestServer(t, Config{})
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz: status %d", resp.StatusCode)
	}
	if _, err := client.Advise(context.Background(), eventsRequest()); err != nil {
		t.Fatal(err)
	}
	resp, err = ts.Client().Get(ts.URL + "/tables")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("tables: status %d", resp.StatusCode)
	}
}
