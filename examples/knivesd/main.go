// Knivesd: the advisor as a service, drift and migration included.
//
// This example runs the knivesd HTTP server in-process on a random port,
// asks it for advice on a telemetry table, hammers the same question again
// (served from the fingerprint cache), then streams a shifted query log at
// /observe until the O2P-backed drift tracker notices the advised layout
// has gone stale and recomputes it — the paper's Section 6.3 workload-drift
// aside, operational. Finally it closes the loop with POST /migrate: the
// service prices the transition from the layout the store still holds to
// the recomputed advice, computes the break-even horizon over the observed
// mix, executes the repartition on a sampled store, and verifies it at
// zero tolerance before declaring the new layout applied.
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"net/http"

	"knives/internal/advisor"
)

func main() {
	svc := advisor.NewService(advisor.Config{DriftThreshold: 0.15, DriftWindow: 8})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	srv := &http.Server{Handler: advisor.NewServer(svc)}
	go srv.Serve(ln)
	defer srv.Close()

	ctx := context.Background()
	client := advisor.NewClient("http://" + ln.Addr().String())

	req := advisor.AdviseRequest{
		Tables: []advisor.TableSpec{{
			Name: "events",
			Rows: 100_000_000,
			Columns: []advisor.ColumnSpec{
				{Name: "device_id", Kind: "int", Size: 4},
				{Name: "ts", Kind: "date", Size: 4},
				{Name: "latitude", Kind: "decimal", Size: 8},
				{Name: "longitude", Kind: "decimal", Size: 8},
				{Name: "payload", Kind: "varchar", Size: 180},
			},
		}},
		Queries: []advisor.QuerySpec{
			{ID: "positions", Weight: 50, Tables: map[string][]string{
				"events": {"device_id", "ts", "latitude", "longitude"}}},
			{ID: "export", Weight: 1, Tables: map[string][]string{
				"events": {"device_id", "ts", "latitude", "longitude", "payload"}}},
		},
	}

	resp, err := client.Advise(ctx, req)
	if err != nil {
		log.Fatal(err)
	}
	adv := resp.Advice[0]
	fmt.Printf("advised (%s): %v  cost=%.2f s  cached=%v\n", adv.Algorithm, adv.Layout, adv.Cost, adv.Cached)

	resp, err = client.Advise(ctx, req)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("same workload again: cached=%v (fingerprint %s...)\n",
		resp.Advice[0].Cached, resp.Advice[0].Fingerprint[:12])

	// The dashboard is retired; traffic becomes single-column battery and
	// timestamp probes the advised layout never anticipated.
	fmt.Println("\nstreaming drifted query log:")
	for batch := 1; batch <= 8; batch++ {
		verdicts, err := client.ObserveBatch(ctx, []advisor.TableObservation{{
			Table: "events",
			Queries: []advisor.ObservedQry{
				{Attrs: []string{"latitude"}},
				{Attrs: []string{"ts"}},
			},
		}})
		if err != nil {
			log.Fatal(err)
		}
		obs := verdicts[0]
		if obs.Status != http.StatusOK {
			log.Fatalf("observe events: %s (status %d)", obs.Error, obs.Status)
		}
		fmt.Printf("  batch %d: drift ratio %+.3f (threshold %.2f) recomputed=%v\n",
			batch, obs.Drift.Ratio, obs.Drift.Threshold, obs.Drift.Recomputed)
		if obs.Drift.Recomputed {
			fmt.Printf("  fresh advice (%s): %v\n", obs.Advice.Algorithm, obs.Advice.Layout)
			break
		}
	}

	// The advice moved, but the store did not: ask the migration engine
	// whether acting on the drift pays for itself, and prove the
	// repartition safe on a sampled twin.
	mig, err := client.Migrate(ctx, advisor.MigrateRequest{Table: "events", MaxRows: 5_000})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nmigrate %s -> %s:\n", mig.FromAlgorithm, mig.ToAlgorithm)
	fmt.Printf("  migration cost %.3e s, gain %.3e s/query\n",
		mig.MigrationSeconds, mig.PerQueryFrom-mig.PerQueryTo)
	if mig.Viable {
		fmt.Printf("  breaks even after %d queries (window %d)\n", mig.BreakEven, mig.Window)
	} else {
		fmt.Printf("  refused: %s\n", mig.Reason)
	}
	if mig.Executed {
		fmt.Printf("  sampled execution on %d rows: cost exact=%v, migrated==generator=%v, applied=%v\n",
			mig.RowsExecuted, mig.CostExact, mig.VerifyExact, mig.AppliedUpdated)
	}

	stats, err := client.Stats(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nstats: %d requests, %d hits, %d searches, %d drift recomputes, %d migrations\n",
		stats.Requests, stats.Hits, stats.Searches, stats.Recomputes, stats.Migrations)
}
