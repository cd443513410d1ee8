package advisor

import (
	"context"
	"errors"
	"net/http"
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

func TestServerQueryEndToEnd(t *testing.T) {
	_, _, client := newTestServer(t, Config{})
	ctx := context.Background()
	resp, err := client.Query(ctx, queryRequest())
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Reports) != 1 {
		t.Fatalf("reports for %d tables, want 1", len(resp.Reports))
	}
	rep := resp.Reports[0]
	if rep.Table != "events" || rep.Cached {
		t.Errorf("first report: table=%q cached=%v", rep.Table, rep.Cached)
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

	// The PR-8 identity at the HTTP layer: without a selection, /query's
	// pipelines and /replay's monolithic scans agree on every per-query
	// measured/predicted number and every total — which is what keeps the
	// two executors honest until they fold.
	q := queryRequest()
	replayed, err := client.Replay(ctx, ReplayRequest{Tables: q.Tables, Queries: q.Queries, MaxRows: q.MaxRows, Seed: q.Seed})
	if err != nil {
		t.Fatal(err)
	}
	mono := replayed.Reports[0]
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
		t.Error("repeated query not served from the exec cache")
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

// TestServerQueryExecModes pins the exec-knob contract on /query: a
// vector-mode request is wire-valid, returns the identical report numbers,
// and — because exec knobs change wall-clock, never results — SHARES the
// cached execution with a row-mode request for the same workload (the same
// deliberate exclusion the replay cache applies to workers).
func TestServerQueryExecModes(t *testing.T) {
	_, _, client := newTestServer(t, Config{})
	ctx := context.Background()

	req := queryRequest()
	req.Exec = "vector"
	req.BatchSize = 128
	req.ExecWorkers = 2
	first, err := client.Query(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	rep := first.Reports[0]
	if rep.Cached {
		t.Error("first vector query claims to be cached")
	}
	if !rep.Exact {
		t.Errorf("vector execution not exact: delta=%v", rep.MaxAbsDelta)
	}
	if rep.ExecMode != "vector" {
		t.Errorf("exec mode on the wire = %q, want vector", rep.ExecMode)
	}

	// A row-mode request for the same selection must answer from the SAME
	// cached execution: exec knobs are deliberately not part of the key.
	rowReq := queryRequest()
	second, err := client.Query(ctx, rowReq)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Reports[0].Cached {
		t.Error("row-mode request did not share the vector run's cached execution")
	}
	if second.Reports[0].MeasuredSeconds != rep.MeasuredSeconds {
		t.Error("cached execution differs across exec modes")
	}
	// And so must a vector request with different knobs.
	req.BatchSize = 4096
	req.ExecWorkers = 8
	third, err := client.Query(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !third.Reports[0].Cached {
		t.Error("different batch size / exec workers missed the cache")
	}
}

// TestServerQueryExecValidation: malformed exec knobs answer 400.
func TestServerQueryExecValidation(t *testing.T) {
	_, _, client := newTestServer(t, Config{})
	ctx := context.Background()

	req := queryRequest()
	req.Exec = "columnar"
	if _, err := client.Query(ctx, req); err == nil || !strings.Contains(err.Error(), "exec mode") {
		t.Errorf("unknown exec mode error = %v", err)
	}

	req = queryRequest()
	req.BatchSize = -1
	if _, err := client.Query(ctx, req); err == nil || !strings.Contains(err.Error(), "batch_size") {
		t.Errorf("negative batch_size error = %v", err)
	}

	req = queryRequest()
	req.BatchSize = 1 << 20
	if _, err := client.Query(ctx, req); err == nil || !strings.Contains(err.Error(), "batch_size") {
		t.Errorf("oversized batch_size error = %v", err)
	}

	req = queryRequest()
	req.ExecWorkers = -1
	if _, err := client.Query(ctx, req); err == nil || !strings.Contains(err.Error(), "exec_workers") {
		t.Errorf("negative exec_workers error = %v", err)
	}

	req = queryRequest()
	req.ExecWorkers = MaxReplayWorkers + 1
	if _, err := client.Query(ctx, req); err == nil || !strings.Contains(err.Error(), "exec_workers") {
		t.Errorf("oversized exec_workers error = %v", err)
	}
}
