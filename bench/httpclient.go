package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"knives/internal/advisor"
)

// client is one closed-loop caller: it owns exactly one keep-alive
// connection to the daemon and never has more than one request in flight.
type client struct {
	base string
	hc   *http.Client
}

func newClient(addr string) *client {
	return &client{
		base: "http://" + addr,
		hc: &http.Client{
			Transport: &http.Transport{
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
				DisableCompression:  true,
			},
			// No op in any workload runs longer than a few hundred ms; a
			// minute means the daemon hung, and the op counts as failed.
			Timeout: time.Minute,
		},
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// post sends one JSON body and returns the status and the whole response
// body.
func (c *client) post(path string, body []byte) (int, []byte, error) {
	resp, err := c.hc.Post(c.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	return readAll(resp)
}

func (c *client) get(path string) (int, []byte, error) {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return 0, nil, err
	}
	return readAll(resp)
}

func readAll(resp *http.Response) (int, []byte, error) {
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, b, nil
}

// getJSON GETs path and decodes a 200 answer into v.
func (c *client) getJSON(path string, v any) error {
	status, body, err := c.get(path)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %s", path, status, firstLine(body))
	}
	if err := json.Unmarshal(body, v); err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	return nil
}

// stats reads the daemon's /stats counters.
func (c *client) stats() (advisor.Stats, error) {
	var st advisor.Stats
	err := c.getJSON("/stats", &st)
	return st, err
}

// scrape is one parsed GET /metrics: every sample except histogram buckets,
// keyed by its full name including labels, e.g.
// `knives_http_request_seconds_sum{path="/advise"}`.
type scrape struct {
	samples map[string]float64
	took    time.Duration
	bytes   int
}

// scrapeMetrics fetches and parses the Prometheus exposition.
func (c *client) scrapeMetrics() (scrape, error) {
	t0 := time.Now()
	status, body, err := c.get("/metrics")
	if err != nil {
		return scrape{}, err
	}
	if status != http.StatusOK {
		return scrape{}, fmt.Errorf("GET /metrics: status %d", status)
	}
	s := scrape{samples: make(map[string]float64), took: time.Since(t0), bytes: len(body)}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' || strings.Contains(line, "_bucket{") {
			continue
		}
		// The value follows the last space; label values in this registry
		// never contain one.
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return scrape{}, fmt.Errorf("GET /metrics: sample %q: %w", line, err)
		}
		s.samples[line[:i]] = v
	}
	return s, nil
}

// delta returns after[name] - before[name]; a sample missing from either
// side reads 0 there (in-memory daemons export no WAL metrics).
func delta(before, after scrape, name string) float64 {
	return after.samples[name] - before.samples[name]
}

// ratio is a/b, or 0 when b is 0: a layer that did no work has no share.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func firstLine(b []byte) string {
	s := strings.TrimSpace(string(b))
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		s = s[:i]
	}
	if len(s) > 200 {
		s = s[:200]
	}
	return s
}
