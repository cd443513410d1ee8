package advisor

import (
	"context"
	"net/http"
	"strings"
	"sync"
	"testing"

	"knives/internal/cost"
)

func replayEventsRequest() ReplayRequest {
	adv := eventsRequest()
	return ReplayRequest{Tables: adv.Tables, Queries: adv.Queries, MaxRows: 2_000}
}

// Service-level: the advise-materialize-replay chain must be exact, cached
// by (fingerprint, rows, seed), and indifferent to the worker count.
func TestServiceReplayTable(t *testing.T) {
	svc := NewService(Config{})
	b, err := eventsRequest().Materialize()
	if err != nil {
		t.Fatal(err)
	}
	tw := b.TableWorkloads()[0]

	rep, fp, cached, err := svc.ReplayTable(tw, ReplayOptions{MaxRows: 2_000})
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Error("first replay claims cached")
	}
	if !rep.Exact() {
		t.Errorf("replay not exact (max |delta| %g)", rep.MaxAbsDelta())
	}
	if rep.RowsReplayed != 2_000 || rep.RowsFull != 1_000_000 {
		t.Errorf("rows %d/%d, want 2000/1000000", rep.RowsReplayed, rep.RowsFull)
	}
	// The layout replayed must be the advised one.
	advice, _, err := svc.AdviseTable(tw)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Algorithm != advice.Algorithm || rep.Layout.NumParts() != advice.Layout.NumParts() {
		t.Errorf("replayed %s/%d parts, advice %s/%d parts",
			rep.Algorithm, rep.Layout.NumParts(), advice.Algorithm, advice.Layout.NumParts())
	}

	// Identical request: cache hit, same report pointer.
	rep2, fp2, cached2, err := svc.ReplayTable(tw, ReplayOptions{MaxRows: 2_000})
	if err != nil {
		t.Fatal(err)
	}
	if !cached2 || rep2 != rep || fp2 != fp {
		t.Error("repeat replay not served from cache")
	}
	// The exec label is not part of the key; rows and seed are.
	if _, _, cached, _ := svc.ReplayTable(tw, ReplayOptions{MaxRows: 2_000, ExecMode: "vector"}); !cached {
		t.Error("exec label changed the cache key")
	}
	if _, _, cached, _ := svc.ReplayTable(tw, ReplayOptions{MaxRows: 1_000}); cached {
		t.Error("row cap did not change the cache key")
	}
	if _, _, cached, _ := svc.ReplayTable(tw, ReplayOptions{MaxRows: 2_000, Seed: 9}); cached {
		t.Error("seed did not change the cache key")
	}

	st := svc.Stats()
	if st.Replays != 5 || st.ReplayHits != 2 || st.CachedReplays != 3 {
		t.Errorf("stats: %+v", st)
	}
}

// The service must replay under its own cost model, including MM.
func TestServiceReplayMMModel(t *testing.T) {
	svc := NewService(Config{Model: cost.NewMM()})
	b, err := eventsRequest().Materialize()
	if err != nil {
		t.Fatal(err)
	}
	rep, _, _, err := svc.ReplayTable(b.TableWorkloads()[0], ReplayOptions{MaxRows: 1_000})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Model != "MM" || !rep.Exact() {
		t.Errorf("MM replay: model=%s exact=%v", rep.Model, rep.Exact())
	}
}

func TestServiceReplayRejectsBadOptions(t *testing.T) {
	svc := NewService(Config{})
	b, err := eventsRequest().Materialize()
	if err != nil {
		t.Fatal(err)
	}
	tw := b.TableWorkloads()[0]
	for _, opt := range []ReplayOptions{
		{MaxRows: -1},
		{MaxRows: MaxReplayRows + 1},
		{ExecMode: "columnar"},
	} {
		if _, _, _, err := svc.ReplayTable(tw, opt); err == nil {
			t.Errorf("options %+v accepted", opt)
		}
	}
}

// End to end over HTTP: advise -> /replay -> report, with the benchmark
// shorthand and the caching contract visible on the wire.
func TestServerReplayEndToEnd(t *testing.T) {
	_, _, client := newTestServer(t, Config{})
	ctx := context.Background()

	if _, err := client.Advise(ctx, eventsRequest()); err != nil {
		t.Fatal(err)
	}
	resp, err := client.Replay(ctx, replayEventsRequest())
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Reports) != 1 {
		t.Fatalf("%d reports, want 1", len(resp.Reports))
	}
	rep := resp.Reports[0]
	if rep.Table != "events" || rep.Cached {
		t.Errorf("first report: %+v", rep)
	}
	if !rep.Exact || rep.MaxAbsDelta != 0 {
		t.Errorf("measured != predicted on the wire: exact=%v maxDelta=%g", rep.Exact, rep.MaxAbsDelta)
	}
	if rep.MeasuredSeconds != rep.PredictedSeconds {
		t.Errorf("totals differ: %v vs %v", rep.MeasuredSeconds, rep.PredictedSeconds)
	}
	if len(rep.Queries) != 3 {
		t.Errorf("%d query replays, want 3", len(rep.Queries))
	}
	for _, q := range rep.Queries {
		if q.MeasuredSeconds != q.PredictedSeconds || len(q.Checksum) != 16 {
			t.Errorf("query %s: %+v", q.ID, q)
		}
	}
	if len(rep.Fingerprint) != 64 {
		t.Errorf("fingerprint %q is not 32 hex bytes", rep.Fingerprint)
	}

	again, err := client.Replay(ctx, replayEventsRequest())
	if err != nil {
		t.Fatal(err)
	}
	if !again.Reports[0].Cached {
		t.Error("repeated replay not served from cache")
	}
	if again.Reports[0].MeasuredSeconds != rep.MeasuredSeconds {
		t.Error("cached replay differs from first answer")
	}

	// Benchmark shorthand replays every table.
	tpch, err := client.Replay(ctx, ReplayRequest{Benchmark: "tpch", ScaleFactor: 0.01, MaxRows: 500})
	if err != nil {
		t.Fatal(err)
	}
	if len(tpch.Reports) != 8 {
		t.Errorf("TPC-H replay has %d reports, want 8", len(tpch.Reports))
	}
	for _, r := range tpch.Reports {
		if !r.Exact {
			t.Errorf("table %s: not exact", r.Table)
		}
	}
}

// The acceptance load test: 8 parallel clients hammering /replay (mixed
// with /advise and /stats) against one service. Under -race this is the
// replay path's data-race gate.
func TestServerConcurrentReplayLoad(t *testing.T) {
	_, svc, client := newTestServer(t, Config{})

	reqs := make([]ReplayRequest, 3)
	for i := range reqs {
		reqs[i] = replayEventsRequest()
		reqs[i].Seed = int64(i) // three distinct cache keys
	}

	const clients = 8
	const perClient = 4
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			ctx := context.Background()
			for r := 0; r < perClient; r++ {
				resp, err := client.Replay(ctx, reqs[(c+r)%len(reqs)])
				if err != nil {
					errs[c] = err
					return
				}
				if len(resp.Reports) != 1 || !resp.Reports[0].Exact {
					errs[c] = context.DeadlineExceeded // any sentinel: report content broke
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
	if st.Replays != clients*perClient {
		t.Errorf("replays = %d, want %d", st.Replays, clients*perClient)
	}
	// Identical concurrent requests must collapse: only the three distinct
	// keys may have executed a replay.
	if executed := st.Replays - st.ReplayHits; executed != int64(len(reqs)) {
		t.Errorf("executed %d replays, want %d (cache must absorb repeats)", executed, len(reqs))
	}
	if st.CachedReplays != len(reqs) {
		t.Errorf("cached replays = %d, want %d", st.CachedReplays, len(reqs))
	}
}

// Wire validation: malformed or abusive replay requests fail with 400; an
// oversized body fails with 413.
func TestServerReplayRejectsBadRequests(t *testing.T) {
	ts, _, _ := newTestServer(t, Config{})

	post := func(body string) int {
		resp, err := ts.Client().Post(ts.URL+"/replay", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	badRequests := []string{
		"{not json",
		`{"benchmark":"tpch"}{"benchmark":"ssb"}`,
		`{"tables":[]}`,
		`{"benchmark":"oracle"}`,
		`{"unknown_field":1}`,
		`{"benchmark":"tpch","max_rows":-5}`,
		`{"benchmark":"tpch","max_rows":2000000}`,
		`{"benchmark":"tpch","workers":2}`,
	}
	for _, body := range badRequests {
		if got := post(body); got != http.StatusBadRequest {
			t.Errorf("body %.40q: status %d, want 400", body, got)
		}
	}

	// An over-limit body is 413: splitting the request can succeed, so the
	// client must be told this is a size problem, not a syntax one.
	huge := `{"benchmark":"` + strings.Repeat("a", maxBodyBytes+1) + `"}`
	if got := post(huge); got != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: status %d, want 413", got)
	}
}

// A replay of a workload the advisor has already answered must reuse the
// cached advice (no second portfolio search) and register the same
// fingerprint.
func TestServerReplaySharesAdviceCache(t *testing.T) {
	_, svc, client := newTestServer(t, Config{})
	ctx := context.Background()
	adv, err := client.Advise(ctx, eventsRequest())
	if err != nil {
		t.Fatal(err)
	}
	before := svc.Stats().Searches
	rep, err := client.Replay(ctx, replayEventsRequest())
	if err != nil {
		t.Fatal(err)
	}
	if got := svc.Stats().Searches; got != before {
		t.Errorf("replay ran %d extra portfolio searches", got-before)
	}
	if rep.Reports[0].Fingerprint != adv.Advice[0].Fingerprint {
		t.Error("replay fingerprint differs from advice fingerprint")
	}
	if rep.Reports[0].Algorithm != adv.Advice[0].Algorithm {
		t.Error("replayed layout is not the advised one")
	}
}

// Replay reports must be byte-stable across backends and match a direct
// service call, pinning that the HTTP layer adds no nondeterminism.
func TestServerReplayDeterministic(t *testing.T) {
	_, _, c1 := newTestServer(t, Config{})
	_, _, c2 := newTestServer(t, Config{})
	ctx := context.Background()
	r1, err := c1.Replay(ctx, replayEventsRequest())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := c2.Replay(ctx, replayEventsRequest())
	if err != nil {
		t.Fatal(err)
	}
	a, b := r1.Reports[0], r2.Reports[0]
	if a.MeasuredSeconds != b.MeasuredSeconds || a.Seeks != b.Seeks || a.BytesRead != b.BytesRead {
		t.Errorf("fresh services replayed different numbers: %+v vs %+v", a, b)
	}
	for i := range a.Queries {
		if a.Queries[i].Checksum != b.Queries[i].Checksum {
			t.Errorf("query %s: checksums differ across services", a.Queries[i].ID)
		}
	}
}
