package advisor

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"knives/internal/algo"
	"knives/internal/faultinject"
	"knives/internal/statestore"
	"knives/internal/vfs"
)

// holdSearchGate takes every process-wide search slot, so any advise that
// reaches the portfolio fan-out parks on the gate until release is called.
// This is the test's handle on "a request is slow": no sleeps, no fake
// workloads, the real blocking point.
func holdSearchGate(t *testing.T) (release func()) {
	t.Helper()
	slots := runtime.GOMAXPROCS(0)
	for i := 0; i < slots; i++ {
		algo.AcquireSearchSlot()
	}
	var released atomic.Bool
	release = func() {
		if released.CompareAndSwap(false, true) {
			for i := 0; i < slots; i++ {
				algo.ReleaseSearchSlot()
			}
		}
	}
	t.Cleanup(release)
	return release
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func postAdvise(ts *httptest.Server) (*http.Response, error) {
	b, err := json.Marshal(eventsRequest())
	if err != nil {
		return nil, err
	}
	return ts.Client().Post(ts.URL+"/advise", "application/json", bytes.NewReader(b))
}

// A server at MaxInFlight=1 with no queue must shed the second concurrent
// request with 429 + Retry-After while the first is parked on the search
// gate — and the first must still complete normally once unparked.
func TestServerAdmissionSheds429(t *testing.T) {
	svc, err := OpenService(Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServerWith(svc, ServerConfig{
		MaxInFlight: 1, MaxQueue: 0, RetryAfter: 2 * time.Second,
	}))
	defer ts.Close()
	release := holdSearchGate(t)

	type result struct {
		status int
		err    error
	}
	first := make(chan result, 1)
	go func() {
		resp, err := postAdvise(ts)
		if err != nil {
			first <- result{0, err}
			return
		}
		resp.Body.Close()
		first <- result{resp.StatusCode, nil}
	}()
	// The request counter ticks before the fan-out parks on the gate, so
	// Requests >= 1 means the admission slot is held.
	waitFor(t, "first request to occupy the slot", func() bool { return svc.Stats().Requests >= 1 })

	resp, err := postAdvise(ts)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second concurrent request: status %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "2" {
		t.Errorf("Retry-After = %q, want \"2\"", got)
	}

	release()
	if r := <-first; r.err != nil || r.status != http.StatusOK {
		t.Fatalf("in-flight request after release: status %d, err %v", r.status, r.err)
	}

	client := NewClient(ts.URL)
	client.HTTPClient = ts.Client()
	st, err := client.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Shed != 1 {
		t.Errorf("stats shed = %d, want 1", st.Shed)
	}
}

// A request that cannot finish inside the server's deadline answers 503 —
// and the GET endpoints stay reachable while it is stuck.
func TestServerRequestTimeout503(t *testing.T) {
	svc, err := OpenService(Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServerWith(svc, ServerConfig{RequestTimeout: 50 * time.Millisecond}))
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

	// Liveness is ungated: it must answer even with the gate saturated.
	hz, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hz.Body.Close()
	if hz.StatusCode != http.StatusOK {
		t.Errorf("healthz during overload: status %d", hz.StatusCode)
	}
}

// A canceled request must unblock every portfolio worker parked on the
// search gate and leave no goroutines behind.
func TestAdviseContextCancelReleasesWaiters(t *testing.T) {
	b, err := eventsRequest().Materialize()
	if err != nil {
		t.Fatal(err)
	}
	tw := b.TableWorkloads()[0]
	release := holdSearchGate(t)

	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := AdviseTableContext(ctx, tw, nil)
		done <- err
	}()
	waitFor(t, "fan-out workers to park on the gate", func() bool {
		return runtime.NumGoroutine() > before
	})

	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled advise returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("canceled advise never returned while the gate was full")
	}
	// Every worker must exit without a slot ever being released to them.
	waitFor(t, "fan-out goroutines to drain", func() bool {
		return runtime.NumGoroutine() <= before
	})
	release()
}

// The retry policy's contract: transient statuses (429, 503) and transport
// errors retry with backoff, request faults (400) and plain server bugs
// (500) do not, and the zero value means exactly one attempt.
func TestClientRetryPolicy(t *testing.T) {
	newStub := func(t *testing.T, script []int) (*Client, *atomic.Int64) {
		t.Helper()
		var calls atomic.Int64
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			n := int(calls.Add(1))
			status := http.StatusOK
			if n <= len(script) {
				status = script[n-1]
			}
			if status != http.StatusOK {
				if status == http.StatusTooManyRequests {
					// A deliberately huge hint: MaxDelay must cap it, or
					// this test takes an hour.
					w.Header().Set("Retry-After", "3600")
				}
				writeError(w, status, fmt.Errorf("scripted %d", status))
				return
			}
			writeJSON(w, AdviseResponse{})
		}))
		t.Cleanup(ts.Close)
		c := NewClient(ts.URL)
		c.HTTPClient = ts.Client()
		c.Retry = RetryPolicy{MaxAttempts: 5, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond}
		return c, &calls
	}

	t.Run("503 then 429 then success", func(t *testing.T) {
		c, calls := newStub(t, []int{503, 429})
		start := time.Now()
		if _, err := c.Advise(context.Background(), AdviseRequest{}); err != nil {
			t.Fatalf("retried request failed: %v", err)
		}
		if got := calls.Load(); got != 3 {
			t.Errorf("server saw %d calls, want 3", got)
		}
		if elapsed := time.Since(start); elapsed > 2*time.Second {
			t.Errorf("retries took %v; MaxDelay did not cap the Retry-After hint", elapsed)
		}
	})
	t.Run("400 is final", func(t *testing.T) {
		c, calls := newStub(t, []int{400})
		if _, err := c.Advise(context.Background(), AdviseRequest{}); err == nil {
			t.Fatal("scripted 400 reported success")
		}
		if got := calls.Load(); got != 1 {
			t.Errorf("server saw %d calls for a 400, want 1", got)
		}
	})
	t.Run("500 is final", func(t *testing.T) {
		c, calls := newStub(t, []int{500})
		if _, err := c.Advise(context.Background(), AdviseRequest{}); err == nil {
			t.Fatal("scripted 500 reported success")
		}
		if got := calls.Load(); got != 1 {
			t.Errorf("server saw %d calls for a 500, want 1", got)
		}
	})
	t.Run("zero policy means one attempt", func(t *testing.T) {
		c, calls := newStub(t, []int{503})
		c.Retry = RetryPolicy{}
		if _, err := c.Advise(context.Background(), AdviseRequest{}); err == nil {
			t.Fatal("single-attempt client reported success through a 503")
		}
		if got := calls.Load(); got != 1 {
			t.Errorf("server saw %d calls, want 1", got)
		}
	})
	t.Run("exhausted attempts surface the last error", func(t *testing.T) {
		c, calls := newStub(t, []int{503, 503, 503, 503, 503, 503})
		if _, err := c.Advise(context.Background(), AdviseRequest{}); err == nil {
			t.Fatal("always-503 server reported success")
		}
		if got := calls.Load(); got != 5 {
			t.Errorf("server saw %d calls, want MaxAttempts=5", got)
		}
	})
}

// The end-to-end degradation contract: against a store whose disk fails
// scheduled writes, a retrying client finishes every request with zero
// failures, journal failures surface as 503 (not 500), and the final
// service state still equals the store's fold bit for bit.
func TestServerJournalFaultsRetriedToZeroFailures(t *testing.T) {
	dir := t.TempDir()
	fsys, err := vfs.Dir(dir)
	if err != nil {
		t.Fatal(err)
	}
	inj := faultinject.New(fsys,
		faultinject.FailNthWrite(2),
		faultinject.FailNthWrite(5),
		faultinject.FailNthWrite(9),
		faultinject.FailNthSync(4),
	)
	st, err := statestore.Open(inj, statestore.Options{DriftWindow: 16, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := OpenService(Config{Store: st, DriftWindow: 16})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServerWith(svc, ServerConfig{}))
	defer ts.Close()
	client := NewClient(ts.URL)
	client.HTTPClient = ts.Client()
	client.Retry = RetryPolicy{MaxAttempts: 6, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond}

	ctx := context.Background()
	if _, err := client.Advise(ctx, eventsRequest()); err != nil {
		t.Fatalf("advise through fault schedule: %v", err)
	}
	for i := 0; i < 8; i++ {
		if _, err := observeVia(ctx, client, "events", ObservedQry{Attrs: []string{"a", "c"}}); err != nil {
			t.Fatalf("observe %d through fault schedule: %v", i, err)
		}
	}
	// Every request applied once: a failed one was retried under its ID.
	if got := svc.Stats().ObservedQueries; got != 8 {
		t.Errorf("ObservedQueries = %d after 8 retried requests, want 8", got)
	}

	// The faults really fired (otherwise this test proves nothing) ...
	if inj.Injected() == 0 {
		t.Fatal("fault schedule never fired; widen it")
	}
	// ... and journal and memory still agree exactly.
	if !bytes.Equal(normalized(svc.ExportState()), normalized(st.Export())) {
		t.Fatal("service state diverged from store fold after retried faults")
	}
	if err := svc.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}
