package main

import (
	"context"
	"io"
	"net"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"knives/internal/advisor"
	"knives/internal/algo"
	"knives/internal/migrate"
	"knives/internal/statestore"
	"knives/internal/telemetry"
	"knives/internal/vfs"
)

func TestParseFlagsDefaults(t *testing.T) {
	cfg, err := parseFlags(nil)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.addr != ":7978" {
		t.Errorf("addr = %q", cfg.addr)
	}
	if cfg.model.Name() != "HDD" {
		t.Errorf("default model is %s, want HDD", cfg.model.Name())
	}
	if cfg.driftThreshold != advisor.DefaultDriftThreshold {
		t.Errorf("drift threshold = %v", cfg.driftThreshold)
	}
	if cfg.prewarm != nil {
		t.Error("prewarm benchmark set by default")
	}
	if cfg.migrateWindow != migrate.DefaultWindow {
		t.Errorf("migrate window = %d, want %d", cfg.migrateWindow, migrate.DefaultWindow)
	}
}

func TestParseFlagsRejectsBadValues(t *testing.T) {
	for _, args := range [][]string{
		{"-model", "quantum"},
		{"-prewarm", "mystery"},
		{"-buffer", "0"},
		{"-drift-threshold", "0"},
		{"-drift-threshold", "-1"},
		{"-migrate-window", "0"},
		{"-migrate-window", "-5"},
		{"-migrate-window", "2000000000"},
		{"-nosuchflag"},
		{"-drift-window", "-1"},
		{"-snapshot-every", "0"},
		// A scale factor that puts a table past schema.MaxTableBytes.
		{"-prewarm", "tpch", "-sf", "1e15"},
		{"-prewarm", "ssb", "-sf", "1e15"},
		// Device overrides past cost.Device.Validate's domain.
		{"-seek-ms", "1e12"},
		{"-read-mbps", "1e-9"},
		{"-model", "mm", "-miss-ns", "1e10"},
		{"-block", "1e9"},
		// Removed flags are unknown now: a script still passing one fails.
		{"-drift-tracking", "exact"},
		{"-sketch-capacity", "64"},
		{"-ingest-shards", "8"},
		{"-ingest-group", "64"},
	} {
		if _, err := parseFlags(args); err == nil {
			// run(args) would start the daemon on flags parseFlags accepts.
			t.Errorf("parseFlags(%v) accepted bad input", args)
			continue
		}
		if code := run(args); code != 2 {
			t.Errorf("run(%v) exited %d, want 2", args, code)
		}
	}
}

func TestParseFlagsOptions(t *testing.T) {
	cfg, err := parseFlags([]string{"-model", "mm", "-addr", ":0", "-drift-threshold", "0.3", "-drift-window", "32"})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.model.Name() != "MM" {
		t.Errorf("model is %s, want MM", cfg.model.Name())
	}
	if cfg.driftThreshold != 0.3 || cfg.driftWindow != 32 {
		t.Errorf("drift config = (%v, %d)", cfg.driftThreshold, cfg.driftWindow)
	}
	cfg, err = parseFlags([]string{"-prewarm", "ssb", "-sf", "0.01"})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.prewarm == nil || cfg.prewarm.Name != "SSB" {
		t.Errorf("prewarm benchmark = %+v", cfg.prewarm)
	}
}

func TestParseFlagsRejectsBadHardening(t *testing.T) {
	for _, args := range [][]string{
		{"-request-timeout", "-1s"},
		{"-max-inflight", "-1"},
		{"-max-queue", "-1"},
		{"-max-queue", "4"}, // queue without an in-flight bound
		{"-retry-after", "0"},
		{"-retry-after", "-1s"},
		{"-drain-timeout", "0"},
	} {
		if _, err := parseFlags(args); err == nil {
			t.Errorf("parseFlags(%v) accepted bad input", args)
		}
	}
}

// The shutdown-drain regression: a request in flight when SIGTERM lands
// must complete with 200, and only afterwards is the WAL sealed with a
// snapshot a restart recovers from.
func TestServeDrainsInFlightThenSealsWAL(t *testing.T) {
	walDir := t.TempDir()
	cfg, err := parseFlags([]string{
		"-wal-dir", walDir, "-snapshot-every", "-1",
		"-drift-window", "16", "-drain-timeout", "10s",
	})
	if err != nil {
		t.Fatal(err)
	}
	svc, reg, err := newService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- serve(ctx, cfg, svc, reg, ln) }()

	// Park the request mid-handler by taking every search slot: the advise
	// is admitted, journal-registered work not yet done, fan-out waiting.
	slots := runtime.GOMAXPROCS(0)
	for i := 0; i < slots; i++ {
		algo.AcquireSearchSlot()
	}
	client := advisor.NewClient("http://" + ln.Addr().String())
	reqDone := make(chan error, 1)
	go func() {
		_, err := client.Advise(context.Background(), advisor.AdviseRequest{
			Tables: []advisor.TableSpec{{Name: "events", Rows: 10_000, Columns: []advisor.ColumnSpec{
				{Name: "a", Kind: "char", Size: 8}, {Name: "b", Kind: "char", Size: 8}, {Name: "c", Kind: "char", Size: 8},
			}}},
			Queries: []advisor.QuerySpec{{Tables: map[string][]string{"events": {"a", "b"}}}},
		})
		reqDone <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for svc.Stats().Requests < 1 {
		select {
		case err := <-reqDone:
			t.Fatalf("advise returned before reaching the search fan-out: %v", err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("advise request never reached the service")
		}
		time.Sleep(time.Millisecond)
	}

	// SIGTERM arrives (the signal context cancels) while the request is in
	// flight; unpark the search only after shutdown has begun.
	cancel()
	time.Sleep(10 * time.Millisecond)
	for i := 0; i < slots; i++ {
		algo.ReleaseSearchSlot()
	}
	if err := <-reqDone; err != nil {
		t.Fatalf("in-flight advise failed during drain: %v", err)
	}
	if err := <-served; err != nil {
		t.Fatalf("serve returned %v after drain", err)
	}

	// The store was sealed AFTER the drain: the snapshot covers the
	// request's registration, so a restart replays zero journal records.
	fsys, err := vfs.Dir(walDir)
	if err != nil {
		t.Fatal(err)
	}
	st, err := statestore.Open(fsys, statestore.Options{DriftWindow: 16, SnapshotEvery: -1})
	if err != nil {
		t.Fatalf("reopen after drain: %v", err)
	}
	defer st.Close()
	rep := st.Report()
	if rep.SnapshotSeq == 0 {
		t.Error("no snapshot written at shutdown")
	}
	if rep.Records != 0 {
		t.Errorf("restart replayed %d journal records, want 0 (snapshot should cover them)", rep.Records)
	}
	states := st.Recovered()
	if len(states) != 1 || states[0].Table.Name != "events" {
		t.Fatalf("recovered %d tables (%+v), want the drained request's table", len(states), states)
	}
}

func TestRunExitCodes(t *testing.T) {
	if got := run([]string{"-model", "quantum"}); got != 2 {
		t.Errorf("bad flags exit = %d, want 2", got)
	}
	if got := run([]string{"-h"}); got != 0 {
		t.Errorf("-h exit = %d, want 0", got)
	}
}

// The daemon end to end: prewarm a small benchmark, serve, answer from
// cache.
func TestDaemonServesPrewarmedBenchmark(t *testing.T) {
	cfg, err := parseFlags([]string{"-prewarm", "tpch", "-sf", "0.01"})
	if err != nil {
		t.Fatal(err)
	}
	svc, _, err := newService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(advisor.NewServer(svc))
	defer ts.Close()

	client := advisor.NewClient(ts.URL)
	client.HTTPClient = ts.Client()
	resp, err := client.Advise(context.Background(), advisor.AdviseRequest{Benchmark: "tpch", ScaleFactor: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Advice) != 8 {
		t.Fatalf("advice for %d tables, want 8", len(resp.Advice))
	}
	for _, adv := range resp.Advice {
		if !adv.Cached {
			t.Errorf("%s: prewarmed table not served from cache", adv.Table)
		}
	}
	stats, err := client.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Hits != 8 {
		t.Errorf("stats after prewarmed advise: %+v", stats)
	}
}

func TestParseFlagsTelemetry(t *testing.T) {
	cfg, err := parseFlags([]string{"-pprof", "-slow-request", "250ms"})
	if err != nil {
		t.Fatal(err)
	}
	if !cfg.pprof {
		t.Error("-pprof not recorded")
	}
	if cfg.slowRequest != 250*time.Millisecond {
		t.Errorf("slowRequest = %v, want 250ms", cfg.slowRequest)
	}
	if _, err := parseFlags([]string{"-slow-request", "-1s"}); err == nil {
		t.Error("negative -slow-request accepted")
	}
}

// The daemon's wiring smoke: newService hands back the registry it shared
// with the state store and service, and a server built on it answers a
// strict-format /metrics scrape with WAL and request metrics after one
// advise round-trip.
func TestDaemonMetricsEndpoint(t *testing.T) {
	cfg, err := parseFlags([]string{"-wal-dir", t.TempDir(), "-drift-window", "16", "-pprof"})
	if err != nil {
		t.Fatal(err)
	}
	svc, reg, err := newService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(advisor.NewServerWith(svc, advisor.ServerConfig{
		Telemetry:   reg,
		EnablePprof: cfg.pprof,
	}))
	defer ts.Close()

	client := advisor.NewClient(ts.URL)
	client.HTTPClient = ts.Client()
	if _, err := client.Advise(context.Background(), advisor.AdviseRequest{Benchmark: "tpch", ScaleFactor: 0.01}); err != nil {
		t.Fatal(err)
	}

	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/metrics: status %d", resp.StatusCode)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := telemetry.CheckExposition(string(b)); err != nil {
		t.Fatalf("exposition fails strict check: %v", err)
	}
	for _, want := range []string{
		"knives_wal_fsync_seconds_count",
		"knives_requests_total",
		`knives_http_request_seconds_count{path="/advise"}`,
	} {
		if !strings.Contains(string(b), want) {
			t.Errorf("scrape missing %s", want)
		}
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
}
