package advisor

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync/atomic"
	"time"
)

// RetryPolicy makes a Client ride out transient failures: transport errors,
// 429 (shed by the admission gate), and 503 (deadline expired or journal
// write failed server-side) are retried with exponential backoff; every
// other status is final. The zero value retries nothing — one attempt,
// exactly the old behavior.
//
// Retries make POST /observe at-least-once on the wire, but ObserveBatch
// stamps each logical batch with a client-generated ID the server dedups
// within a window, so a response lost in transit does NOT re-ingest (and
// double-count) the applied batch on retry. Advise/replay/query/migrate
// are idempotent by cache key, so retries there are free.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries (first call included);
	// values < 1 mean 1.
	MaxAttempts int
	// BaseDelay seeds the exponential backoff (doubling per retry); 0 means
	// 100ms.
	BaseDelay time.Duration
	// MaxDelay caps the backoff; 0 means 5s. A server Retry-After hint
	// overrides the computed delay but is still capped here.
	MaxDelay time.Duration
}

// Client talks to a knivesd server. The zero HTTPClient uses
// http.DefaultClient; the zero Retry performs exactly one attempt.
type Client struct {
	BaseURL    string
	HTTPClient *http.Client
	Retry      RetryPolicy

	// jitterNonce seeds this client's backoff jitter so a fleet of shed
	// clients never shares a retry schedule; 0 means "not yet assigned"
	// and nonce() fills it lazily. Accessed atomically.
	jitterNonce uint64
	// batchSeq numbers this client's observe batches for the dedup IDs.
	// Accessed atomically.
	batchSeq uint64
}

// clientSeq distinguishes clients created in the same process (and the
// same nanosecond).
var clientSeq atomic.Uint64

// nonce returns this client's jitter seed, assigning it on first use. The
// seed mixes a process-wide counter with the wall clock, so clients
// diverge both within one process and across processes restarted in
// lockstep; once assigned it never changes, keeping a single client's
// schedule reproducible.
func (c *Client) nonce() uint64 {
	if n := atomic.LoadUint64(&c.jitterNonce); n != 0 {
		return n
	}
	n := splitmix64(clientSeq.Add(1) ^ uint64(time.Now().UnixNano()))
	if n == 0 {
		n = 1
	}
	atomic.CompareAndSwapUint64(&c.jitterNonce, 0, n)
	return atomic.LoadUint64(&c.jitterNonce)
}

// splitmix64 is the SplitMix64 finalizer: a cheap, well-mixed 64-bit hash.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// NewClient returns a client for the given base URL (e.g.
// "http://localhost:7978").
func NewClient(baseURL string) *Client { return &Client{BaseURL: baseURL} }

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// httpError is a non-200 response, kept structured so the retry loop can
// branch on the status code.
type httpError struct {
	method, path string
	status       int
	msg          string
	// retryAfter is the server's Retry-After hint in seconds; 0 = none.
	retryAfter int
}

func (e *httpError) Error() string {
	if e.msg != "" {
		return fmt.Sprintf("advisor client: %s %s: %s (status %d)", e.method, e.path, e.msg, e.status)
	}
	return fmt.Sprintf("advisor client: %s %s: status %d", e.method, e.path, e.status)
}

// retryable reports whether an attempt's failure is worth retrying: any
// transport error (connection refused mid-restart, reset mid-shutdown), a
// 429 shed, or a 503 (deadline or journal failure). 4xx request faults and
// 500s are final — the same payload would fail the same way.
func retryable(err error) bool {
	var he *httpError
	if errors.As(err, &he) {
		return he.status == http.StatusTooManyRequests || he.status == http.StatusServiceUnavailable
	}
	return true
}

// backoffDelay computes the sleep before retry number `attempt` (1-based):
// exponential from BaseDelay, capped at MaxDelay, with jitter (±25%)
// hashed from the caller's seed AND the attempt number. A server
// Retry-After hint replaces the exponential term but still respects the
// cap.
//
// The seed matters: jitter derived from the attempt number alone is
// IDENTICAL across clients, so a burst of clients shed together computes
// the same delays and re-stampedes in lockstep — the jitter prevented
// nothing. Each Client hashes its own nonce into the seed, so a fleet's
// schedules diverge while any single client's stay reproducible.
func (p RetryPolicy) backoffDelay(seed uint64, attempt, retryAfterSecs int) time.Duration {
	base := p.BaseDelay
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	maxd := p.MaxDelay
	if maxd <= 0 {
		maxd = 5 * time.Second
	}
	d := base << (attempt - 1)
	if retryAfterSecs > 0 {
		d = time.Duration(retryAfterSecs) * time.Second
	}
	if d > maxd || d <= 0 {
		d = maxd
	}
	h := splitmix64(seed ^ uint64(attempt)*0x9e3779b97f4a7c15)
	frac := int64(h%512) - 256 // [-256, 255] -> [-25%, +25%]
	d += time.Duration(int64(d) * frac / 1024)
	if d <= 0 {
		d = base
	}
	return d
}

// do issues one JSON request and decodes the response into out, retrying
// per the client's RetryPolicy. The caller's ctx bounds all attempts and
// the sleeps between them.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var payload []byte
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return fmt.Errorf("advisor client: encode request: %w", err)
		}
		payload = b
	}
	attempts := c.Retry.MaxAttempts
	if attempts < 1 {
		attempts = 1
	}
	var lastErr error
	for attempt := 1; attempt <= attempts; attempt++ {
		lastErr = c.doOnce(ctx, method, path, payload, out)
		if lastErr == nil {
			return nil
		}
		if ctx.Err() != nil || attempt == attempts || !retryable(lastErr) {
			return lastErr
		}
		retryAfter := 0
		var he *httpError
		if errors.As(lastErr, &he) {
			retryAfter = he.retryAfter
		}
		select {
		case <-time.After(c.Retry.backoffDelay(c.nonce(), attempt, retryAfter)):
		case <-ctx.Done():
			return lastErr
		}
	}
	return lastErr
}

// doOnce is a single request/response cycle.
func (c *Client) doOnce(ctx context.Context, method, path string, payload []byte, out any) error {
	var body io.Reader
	if payload != nil {
		body = bytes.NewReader(payload)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, body)
	if err != nil {
		return fmt.Errorf("advisor client: %w", err)
	}
	if payload != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return fmt.Errorf("advisor client: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		he := &httpError{method: method, path: path, status: resp.StatusCode}
		var e struct {
			Error string `json:"error"`
		}
		if json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&e) == nil && e.Error != "" {
			he.msg = e.Error
		}
		if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
			he.retryAfter = secs
		}
		return he
	}
	if out == nil {
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("advisor client: decode response: %w", err)
	}
	return nil
}

// Advise requests layout advice for a workload.
func (c *Client) Advise(ctx context.Context, req AdviseRequest) (AdviseResponse, error) {
	var resp AdviseResponse
	err := c.do(ctx, http.MethodPost, "/advise", req, &resp)
	return resp, err
}

// Replay requests an advise-materialize-replay-report chain for a workload.
func (c *Client) Replay(ctx context.Context, req ReplayRequest) (ReplayResponse, error) {
	var resp ReplayResponse
	err := c.do(ctx, http.MethodPost, "/replay", req, &resp)
	return resp, err
}

// Query requests an advise-materialize-EXECUTE chain for a workload: every
// query runs as a σ/π/⋈ operator pipeline over an epoch snapshot of the
// advised layout, and the response decomposes each measured cost into
// per-operator terms.
func (c *Client) Query(ctx context.Context, req QueryRequest) (QueryResponse, error) {
	var resp QueryResponse
	err := c.do(ctx, http.MethodPost, "/query", req, &resp)
	return resp, err
}

// ObserveBatch ships many tables' observation batches in one POST /observe
// and returns the per-entry verdicts, in submission order. Entries fail
// independently server-side; the call errors only when the request itself
// does (transport, decode, non-200). The request carries a client-generated
// batch ID — every retry of this logical batch re-sends the SAME ID, so the
// server's dedup window makes redelivery after a lost response idempotent
// instead of double-counting the applied queries.
func (c *Client) ObserveBatch(ctx context.Context, batches []TableObservation) ([]TableObserveVerdict, error) {
	if len(batches) == 0 {
		return nil, nil
	}
	return c.observeBatch(ctx, c.batchID(), batches)
}

// batchID mints a batch ID unique to this client and call.
func (c *Client) batchID() string {
	return fmt.Sprintf("%016x-%x", c.nonce(), atomic.AddUint64(&c.batchSeq, 1))
}

// observeBatch sends batches under the given batch ID.
func (c *Client) observeBatch(ctx context.Context, id string, batches []TableObservation) ([]TableObserveVerdict, error) {
	var resp ObserveResponse
	if err := c.do(ctx, http.MethodPost, "/observe", ObserveRequest{BatchID: id, Batches: batches}, &resp); err != nil {
		return nil, err
	}
	if len(resp.Verdicts) != len(batches) {
		return resp.Verdicts, fmt.Errorf("advisor client: observe batch answered %d verdicts for %d batches",
			len(resp.Verdicts), len(batches))
	}
	return resp.Verdicts, nil
}

// ObserveBuffer accumulates observations per table and flushes them as ONE
// batched request once FlushAt queries are pending (or on demand). It is
// the client-side half of the batched ingest pipeline: callers record
// queries as they see them; the buffer amortizes the HTTP and WAL cost
// across a whole batch. Not safe for concurrent use — give each producer
// goroutine its own buffer (the server's WAL commit combines concurrent
// requests anyway).
type ObserveBuffer struct {
	// Client ships the flushes; required.
	Client *Client
	// FlushAt triggers an automatic flush when this many queries are
	// pending across all tables; <= 0 means DefaultObserveFlushAt.
	FlushAt int

	pending int      // queries not yet acknowledged, cut included
	order   []string // first-appearance order of tables with queries added since the cut
	byTable map[string][]ObservedQry
	// cut is what a failed Flush sent, under cutID. The next Flush
	// re-sends it under the same ID, so the server's dedup window answers
	// it if the failed attempt was applied after all.
	cut   []TableObservation
	cutID string
}

// DefaultObserveFlushAt is the automatic flush threshold of an
// ObserveBuffer whose FlushAt is unset.
const DefaultObserveFlushAt = 256

// Add records one observed query for a table, flushing automatically when
// the buffer reaches its threshold. The returned verdicts are nil unless
// this Add triggered a flush.
func (b *ObserveBuffer) Add(ctx context.Context, table string, q ObservedQry) ([]TableObserveVerdict, error) {
	if b.byTable == nil {
		b.byTable = make(map[string][]ObservedQry)
	}
	if _, ok := b.byTable[table]; !ok {
		b.order = append(b.order, table)
	}
	b.byTable[table] = append(b.byTable[table], q)
	b.pending++
	limit := b.FlushAt
	if limit <= 0 {
		limit = DefaultObserveFlushAt
	}
	if b.pending < limit {
		return nil, nil
	}
	return b.Flush(ctx)
}

// Pending reports how many queries are buffered and not yet shipped.
func (b *ObserveBuffer) Pending() int { return b.pending }

// Flush ships everything pending as batched observes (one entry per
// table, tables in first-appearance order) and empties the buffer. On
// error nothing is lost: the next Flush re-sends the failed request under
// its batch ID, then ships whatever was added since. The verdicts of a
// request acknowledged before the error are returned beside it.
func (b *ObserveBuffer) Flush(ctx context.Context) ([]TableObserveVerdict, error) {
	var verdicts []TableObserveVerdict
	for b.pending > 0 {
		if b.cut == nil {
			b.cut = make([]TableObservation, 0, len(b.order))
			for _, t := range b.order {
				b.cut = append(b.cut, TableObservation{Table: t, Queries: b.byTable[t]})
			}
			b.cutID = b.Client.batchID()
			b.order = b.order[:0]
			b.byTable = make(map[string][]ObservedQry)
		}
		v, err := b.Client.observeBatch(ctx, b.cutID, b.cut)
		if err != nil {
			return verdicts, err
		}
		verdicts = append(verdicts, v...)
		for _, e := range b.cut {
			b.pending -= len(e.Queries)
		}
		b.cut = nil
	}
	return verdicts, nil
}

// Migrate requests a drift-triggered migration plan (and sampled
// execute-and-verify run) for a registered table.
func (c *Client) Migrate(ctx context.Context, req MigrateRequest) (MigrationWire, error) {
	var resp MigrationWire
	err := c.do(ctx, http.MethodPost, "/migrate", req, &resp)
	return resp, err
}

// Advice fetches the current tracked advice for one table.
func (c *Client) Advice(ctx context.Context, table string) (TableAdviceWire, error) {
	var resp TableAdviceWire
	err := c.do(ctx, http.MethodGet, "/advice?table="+url.QueryEscape(table), nil, &resp)
	return resp, err
}

// Stats fetches the service counters.
func (c *Client) Stats(ctx context.Context) (Stats, error) {
	var resp Stats
	err := c.do(ctx, http.MethodGet, "/stats", nil, &resp)
	return resp, err
}
