package advisor

import (
	"context"
	"errors"
	"net/http"
	"reflect"
	"strings"
	"testing"
)

// queryRequest is an events-style workload with a date column so the
// selection path has a u32 attribute to filter on.
func queryRequest() QueryRequest {
	return QueryRequest{
		Tables: []TableSpec{{
			Name: "events",
			Rows: 1_000_000,
			Columns: []ColumnSpec{
				{Name: "ts", Kind: "date", Size: 4},
				{Name: "a", Kind: "char", Size: 100},
				{Name: "b", Kind: "char", Size: 100},
				{Name: "c", Kind: "char", Size: 100},
			},
		}},
		Queries: []QuerySpec{
			{ID: "q1", Tables: map[string][]string{"events": {"ts", "a"}}},
			{ID: "q2", Tables: map[string][]string{"events": {"a", "b"}}},
			{ID: "q3", Tables: map[string][]string{"events": {"c"}}},
		},
		MaxRows: 600,
		Seed:    3,
	}
}

// TestServerQueryEndToEnd: /replay is /query without a selection — one
// chain, one report cache. Whichever endpoint is asked first executes, the
// other answers the same report from cache, number for number.
func TestServerQueryEndToEnd(t *testing.T) {
	for _, first := range []string{"/query", "/replay"} {
		t.Run(first[1:]+" first", func(t *testing.T) { testQueryEndToEnd(t, first) })
	}
}

func testQueryEndToEnd(t *testing.T, first string) {
	_, svc, client := newTestServer(t, Config{})
	ctx := context.Background()
	q := queryRequest()
	var rep TableExecWire
	var mono TableReplayWire
	order := []string{"/query", "/replay"}
	if first == "/replay" {
		order = []string{"/replay", "/query"}
	}
	for _, path := range order {
		if path == "/query" {
			resp, err := client.Query(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			if len(resp.Reports) != 1 {
				t.Fatalf("reports for %d tables, want 1", len(resp.Reports))
			}
			rep = resp.Reports[0]
		} else {
			resp, err := client.Replay(ctx, ReplayRequest{Tables: q.Tables, Queries: q.Queries, MaxRows: q.MaxRows, Seed: q.Seed})
			if err != nil {
				t.Fatal(err)
			}
			mono = resp.Reports[0]
		}
	}
	if rep.Table != "events" || rep.Cached != (first == "/replay") || mono.Cached != (first == "/query") {
		t.Errorf("%s first: /query table=%q cached=%v, /replay cached=%v", first, rep.Table, rep.Cached, mono.Cached)
	}
	if st := svc.Stats(); st.CachedReplays != 1 || st.Replays != 1 || (st.ReplayHits == 1) != mono.Cached {
		t.Errorf("stats after one /query and one /replay of one workload: %+v", st)
	}
	if !rep.Exact || rep.MaxAbsDelta != 0 {
		t.Errorf("execution not exact: delta=%v", rep.MaxAbsDelta)
	}
	if rep.RowsReplayed != 600 {
		t.Errorf("rows replayed = %d, want 600", rep.RowsReplayed)
	}
	if len(rep.Pipelines) != 3 {
		t.Fatalf("%d pipelines, want 3", len(rep.Pipelines))
	}
	for _, p := range rep.Pipelines {
		if p.Plan == "" || len(p.Operators) == 0 {
			t.Errorf("pipeline %s missing plan/operators: %+v", p.ID, p)
		}
		if p.ResultRows != rep.RowsReplayed {
			t.Errorf("pipeline %s emitted %d rows without a selection, want %d", p.ID, p.ResultRows, rep.RowsReplayed)
		}
		// The leaves decompose the measurement exactly: scan SimTime sums
		// to the query's measured seconds bit for bit.
		var leafTime float64
		for _, op := range p.Operators {
			if op.Op == "scan" {
				leafTime += op.SimTime
			}
		}
		if leafTime != p.MeasuredSeconds {
			t.Errorf("pipeline %s: leaf sim time %v != measured %v", p.ID, leafTime, p.MeasuredSeconds)
		}
	}

	// /replay renders the totals of the report /query renders in full.
	if mono.MeasuredSeconds != rep.MeasuredSeconds || mono.PredictedSeconds != rep.PredictedSeconds ||
		mono.BytesRead != rep.BytesRead || mono.Seeks != rep.Seeks || mono.ReconJoins != rep.ReconJoins ||
		mono.RowsReplayed != rep.RowsReplayed || mono.Exact != rep.Exact || mono.Fingerprint != rep.Fingerprint {
		t.Errorf("/replay totals %+v differ from /query totals %+v", mono, rep)
	}
	if len(mono.Queries) != len(rep.Pipelines) {
		t.Fatalf("/replay reports %d queries, /query %d pipelines", len(mono.Queries), len(rep.Pipelines))
	}
	for i, mq := range mono.Queries {
		if mq != rep.Pipelines[i].QueryReplayWire {
			t.Errorf("query %s: /replay %+v != /query %+v", mq.ID, mq, rep.Pipelines[i].QueryReplayWire)
		}
	}

	again, err := client.Query(ctx, queryRequest())
	if err != nil {
		t.Fatal(err)
	}
	if !again.Reports[0].Cached {
		t.Error("repeated query not served from the report cache")
	}
	if again.Reports[0].MeasuredSeconds != rep.MeasuredSeconds {
		t.Error("cached execution differs from first answer")
	}
}

func TestServerQuerySelection(t *testing.T) {
	_, _, client := newTestServer(t, Config{})
	ctx := context.Background()
	req := queryRequest()
	req.Selection = &SelectionSpec{Table: "events", Column: "ts", Bound: 1263} // ~half the date domain
	resp, err := client.Query(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	rep := resp.Reports[0]
	if !rep.Exact {
		t.Error("selective execution not exact")
	}
	if rep.Selection == "" || !strings.Contains(rep.Selection, "<") {
		t.Errorf("selection not recorded on the report: %q", rep.Selection)
	}
	for _, p := range rep.Pipelines {
		if p.ResultRows <= 0 || p.ResultRows >= rep.RowsReplayed {
			t.Errorf("pipeline %s kept %d of %d rows; the σ filtered nothing (or everything)",
				p.ID, p.ResultRows, rep.RowsReplayed)
		}
	}
	// A different bound is a different execution, not a cache hit.
	req.Selection.Bound = 400
	tighter, err := client.Query(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if tighter.Reports[0].Cached {
		t.Error("different selection bound answered from cache")
	}
	if tighter.Reports[0].Pipelines[0].ResultRows >= resp.Reports[0].Pipelines[0].ResultRows {
		t.Error("tighter bound did not keep fewer rows")
	}
}

func TestServerQueryErrors(t *testing.T) {
	_, _, client := newTestServer(t, Config{})
	ctx := context.Background()

	req := queryRequest()
	req.Selection = &SelectionSpec{Table: "events", Column: "nope", Bound: 1}
	if _, err := client.Query(ctx, req); err == nil || !strings.Contains(err.Error(), "no column") {
		t.Errorf("unknown selection column error = %v", err)
	}

	// The predicate reads a little-endian u32: a char column would filter on
	// its first four bytes of text (and a narrower one match no row at all),
	// so anything but an int or date column is a 400, not a silent answer.
	req = queryRequest()
	req.Selection = &SelectionSpec{Table: "events", Column: "a", Bound: 1}
	_, err := client.Query(ctx, req)
	var he *httpError
	if !errors.As(err, &he) || he.status != http.StatusBadRequest || !strings.Contains(err.Error(), "not a u32 column") {
		t.Errorf("char selection column error = %v, want 400 naming the u32 contract", err)
	}

	req = queryRequest()
	req.Selection = &SelectionSpec{Table: "orders", Column: "ts", Bound: 1}
	if _, err := client.Query(ctx, req); err == nil || !strings.Contains(err.Error(), "not in workload") {
		t.Errorf("unknown selection table error = %v", err)
	}

	req = queryRequest()
	req.MaxRows = MaxReplayRows + 1
	if _, err := client.Query(ctx, req); err == nil {
		t.Error("oversized max_rows accepted")
	}
}

// TestServerQueryExecModes pins that the exec label selects nothing. On one
// service, exec "vector", "row" and "" share ONE cached execution — the label
// is deliberately not part of the key — and answer reports equal in every
// field but cached. On fresh services, each label's own execution differs
// from the others' in the echoed exec_mode alone, and the default request
// still answers "row".
func TestServerQueryExecModes(t *testing.T) {
	ctx := context.Background()
	query := func(c *Client, exec string) TableExecWire {
		t.Helper()
		req := queryRequest()
		req.Exec = exec
		resp, err := c.Query(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		return resp.Reports[0]
	}

	_, _, client := newTestServer(t, Config{})
	first := query(client, "vector")
	if first.Cached || !first.Exact || first.ExecMode != "vector" {
		t.Errorf("first request: cached=%v exact=%v exec_mode=%q, want a fresh exact run labelled vector",
			first.Cached, first.Exact, first.ExecMode)
	}
	for _, exec := range []string{"row", "", "vector"} {
		rep := query(client, exec)
		if !rep.Cached {
			t.Errorf("exec %q missed the first request's cached execution", exec)
		}
		rep.Cached = false
		if !reflect.DeepEqual(rep, first) {
			t.Errorf("exec %q: cached report differs beyond the cached flag\n got %+v\nwant %+v", exec, rep, first)
		}
	}

	for exec, label := range map[string]string{"row": "row", "": "row"} {
		_, _, fresh := newTestServer(t, Config{})
		rep := query(fresh, exec)
		if rep.Cached || rep.ExecMode != label {
			t.Errorf("fresh service, exec %q: cached=%v exec_mode=%q, want a fresh run labelled %q", exec, rep.Cached, rep.ExecMode, label)
		}
		rep.ExecMode = first.ExecMode
		if !reflect.DeepEqual(rep, first) {
			t.Errorf("fresh service, exec %q: report differs beyond the exec_mode label\n got %+v\nwant %+v", exec, rep, first)
		}
	}
}

// TestServerQueryExecValidation: an unknown exec label answers 400. (A body
// carrying a retired pool or batch field is an unknown field, a 400 that
// TestHTTPTranscript records once per field.)
func TestServerQueryExecValidation(t *testing.T) {
	_, _, client := newTestServer(t, Config{})
	req := queryRequest()
	req.Exec = "columnar"
	if _, err := client.Query(context.Background(), req); err == nil || !strings.Contains(err.Error(), "exec mode") {
		t.Errorf("unknown exec mode error = %v", err)
	}
}
