package advisor

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// adviseEvents registers the events table on a test server.
func adviseEvents(t *testing.T, client *Client) {
	t.Helper()
	if _, err := client.Advise(context.Background(), eventsRequest()); err != nil {
		t.Fatal(err)
	}
}

// The batched /observe shape end to end: many tables per request, one
// verdict per entry in submission order, entries failing independently with
// the status the same failure would earn as a request of its own.
func TestServerObserveBatched(t *testing.T) {
	_, svc, client := newTestServer(t, Config{DriftThreshold: 100, DriftWindow: 64})
	adviseEvents(t, client)

	verdicts, err := client.ObserveBatch(context.Background(), []TableObservation{
		{Table: "events", Queries: []ObservedQry{{Attrs: []string{"a", "b"}}, {Attrs: []string{"c"}}}},
		{Table: "ghost", Queries: []ObservedQry{{Attrs: []string{"x"}}}},
		{Table: "events", Queries: []ObservedQry{{Attrs: []string{"d"}, Weight: 2}}},
		{Table: "events", Queries: []ObservedQry{{Attrs: []string{"nope"}}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(verdicts) != 4 {
		t.Fatalf("%d verdicts for 4 batches", len(verdicts))
	}
	if v := verdicts[0]; v.Status != http.StatusOK || v.Error != "" || v.Drift.Observed != 2 {
		t.Errorf("verdict 0: %+v", v)
	}
	if v := verdicts[1]; v.Status != http.StatusNotFound || v.Error == "" {
		t.Errorf("ghost verdict: status=%d error=%q, want 404", v.Status, v.Error)
	}
	if v := verdicts[2]; v.Status != http.StatusOK || v.Drift.Observed != 3 {
		t.Errorf("verdict 2: %+v", v)
	}
	// Unknown column: resolved inside the tracker against the CURRENT
	// schema, so it reads as a stale-schema conflict (re-advise to fix).
	if v := verdicts[3]; v.Status != http.StatusConflict || v.Error == "" {
		t.Errorf("bad-column verdict: status=%d error=%q, want 409", v.Status, v.Error)
	}
	if v := verdicts[0]; v.Advice.Table != "events" || v.Advice.Fingerprint == "" {
		t.Errorf("success verdict carries no advice: %+v", v.Advice)
	}
	// Counters: 3 queries landed (the bad-column batch did not).
	st := svc.Stats()
	if st.ObservedQueries != 3 || st.ObserveBatches != 2 {
		t.Errorf("stats: queries=%d batches=%d, want 3/2", st.ObservedQueries, st.ObserveBatches)
	}
}

// The batched request is the only /observe shape: the retired single-table
// fields are unknown fields, alone or beside batches, and a body carrying
// them is a 400 that ingests nothing.
func TestServerObserveBatchedExcludesLegacyFields(t *testing.T) {
	ts, svc, client := newTestServer(t, Config{DriftThreshold: 100})
	adviseEvents(t, client)

	for _, body := range []string{
		`{"table":"events","queries":[{"attrs":["a"]}]}`,
		`{"table":"events","queries":[{"attrs":["a"]}],"batches":[{"table":"events","queries":[{"attrs":["a"]}]}]}`,
	} {
		resp, err := ts.Client().Post(ts.URL+"/observe", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", body, resp.StatusCode)
		}
	}
	if got := svc.Stats().ObservedQueries; got != 0 {
		t.Errorf("rejected bodies ingested %d queries", got)
	}
}

// ObserveBuffer accumulates per table, flushes at the threshold as one
// batched request, and preserves the buffer on flush errors for a retry.
func TestObserveBufferFlushAt(t *testing.T) {
	_, svc, client := newTestServer(t, Config{DriftThreshold: 100, DriftWindow: 64})
	adviseEvents(t, client)

	buf := &ObserveBuffer{Client: client, FlushAt: 4}
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		vs, err := buf.Add(ctx, "events", ObservedQry{Attrs: []string{"a"}})
		if err != nil {
			t.Fatal(err)
		}
		if vs != nil {
			t.Fatalf("add %d flushed below the threshold", i)
		}
	}
	if buf.Pending() != 3 {
		t.Fatalf("Pending = %d, want 3", buf.Pending())
	}
	vs, err := buf.Add(ctx, "events", ObservedQry{Attrs: []string{"b"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 1 || vs[0].Status != http.StatusOK {
		t.Fatalf("threshold flush verdicts: %+v", vs)
	}
	if buf.Pending() != 0 {
		t.Errorf("Pending = %d after flush, want 0", buf.Pending())
	}
	if st := svc.Stats(); st.ObservedQueries != 4 || st.ObserveBatches != 1 {
		t.Errorf("stats after one buffered flush: queries=%d batches=%d, want 4/1",
			st.ObservedQueries, st.ObserveBatches)
	}

	// A flush against a dead server keeps the buffer for retry.
	dead := NewClient("http://127.0.0.1:1")
	buf2 := &ObserveBuffer{Client: dead, FlushAt: 100}
	if _, err := buf2.Add(ctx, "events", ObservedQry{Attrs: []string{"a"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := buf2.Flush(ctx); err == nil {
		t.Fatal("flush to a dead server succeeded")
	}
	if buf2.Pending() != 1 {
		t.Errorf("failed flush dropped the buffer: Pending = %d, want 1", buf2.Pending())
	}
	buf2.Client = client
	vs, err = buf2.Flush(ctx)
	if err != nil || len(vs) != 1 {
		t.Fatalf("retried flush: vs=%v err=%v", vs, err)
	}
}

// A Flush retried after an error re-sends the failed request under its
// batch ID, so a request that was applied but whose answers were lost is
// answered from the dedup window, not ingested twice. The proxy applies
// every request and drops the first three responses: the first Flush's
// two attempts both lose theirs, and the retried Flush's first attempt
// does too.
func TestObserveBufferFlushRetryKeepsBatchID(t *testing.T) {
	svc := NewService(Config{DriftThreshold: 100, DriftWindow: 64})
	srv := NewServer(svc)
	var served atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/observe" || served.Add(1) > 3 {
			srv.ServeHTTP(w, r)
			return
		}
		srv.ServeHTTP(httptest.NewRecorder(), r)
		panic(http.ErrAbortHandler) // close the connection unanswered
	}))
	defer ts.Close()
	client := NewClient(ts.URL)
	client.HTTPClient = ts.Client()
	client.Retry = RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond}
	adviseEvents(t, client)

	ctx := context.Background()
	buf := &ObserveBuffer{Client: client}
	if _, err := buf.Add(ctx, "events", ObservedQry{Attrs: []string{"a"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := buf.Flush(ctx); err == nil {
		t.Fatal("flush succeeded with every response dropped")
	}
	if buf.Pending() != 1 {
		t.Fatalf("failed flush: Pending = %d, want 1", buf.Pending())
	}
	vs, err := buf.Flush(ctx)
	if err != nil {
		t.Fatalf("retried flush: %v", err)
	}
	if len(vs) != 1 || vs[0].Status != http.StatusOK {
		t.Fatalf("retried flush verdicts: %+v", vs)
	}
	if buf.Pending() != 0 {
		t.Errorf("Pending = %d after the retried flush, want 0", buf.Pending())
	}
	if got := served.Load(); got != 4 {
		t.Errorf("proxy served %d observe requests, want 4", got)
	}
	if got := svc.Stats().ObservedQueries; got != 1 {
		t.Errorf("ObservedQueries = %d, want 1: the retried flush was ingested again", got)
	}
}
