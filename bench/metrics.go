package main

import (
	"time"
)

// metricDef names one metric. BENCHMARK.json repeats these lists; a test
// keeps the two in step.
type metricDef struct {
	name   string
	unit   string
	better string  // "higher" or "lower"
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd are the metrics a caller of knivesd would see. failed_share is
// reported with every run but is not in this list: it is 0 on every healthy
// run, and the result line carries it as failed/attempted instead.
//
// Every bound is the contract's maximum. On the two shared cores this was
// written on, ten runs of one commit spread (interquartile range over
// median) by 4-12 % on every timing metric and drift by up to 10 % between
// quiet and noisy quarter-hours; a third of 0.25 is the tightest the
// measured spread supports. README.md has the table.
var endToEnd = []metricDef{
	{"ops_s", "ops/s", "higher", 0.25},
	{"p50_ms", "ms", "lower", 0.25},
	{"p95_ms", "ms", "lower", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the single-layer metrics, grouped by the module they
// measure. bench/README.md says where each comes from and which end-to-end
// metric it should move.
var perLayer = []metricDef{
	// http: advisor.Server and cmd/knivesd, client side and /metrics.
	{name: "http.advise.p50_ms", unit: "ms", better: "lower"},
	{name: "http.advise.p95_ms", unit: "ms", better: "lower"},
	{name: "http.observe.p50_ms", unit: "ms", better: "lower"},
	{name: "http.observe.p95_ms", unit: "ms", better: "lower"},
	{name: "http.query.p50_ms", unit: "ms", better: "lower"},
	{name: "http.query.p95_ms", unit: "ms", better: "lower"},
	{name: "http.replay.p50_ms", unit: "ms", better: "lower"},
	{name: "http.migrate.p50_ms", unit: "ms", better: "lower"},
	{name: "http.p99_ms", unit: "ms", better: "lower"},
	{name: "http.max_ms", unit: "ms", better: "lower"},
	{name: "http.server_share", unit: "ratio", better: "higher"},
	{name: "http.resp_kb_per_op", unit: "kB", better: "lower"},
	// advisor: wire + cache.
	{name: "advisor.wire_decode_us", unit: "us", better: "lower"},
	{name: "advisor.fingerprint_us", unit: "us", better: "lower"},
	{name: "advisor.advise_hit_us", unit: "us", better: "lower"},
	{name: "advisor.advise_miss_ms", unit: "ms", better: "lower"},
	{name: "advisor.advise_hit_share", unit: "ratio", better: "higher"},
	{name: "advisor.exec_hit_share", unit: "ratio", better: "higher"},
	// advisor: gate + admission.
	{name: "advisor.gate_wait_ms_per_op", unit: "ms", better: "lower"},
	{name: "advisor.shed_share", unit: "ratio", better: "lower"},
	// advisor: ingest + drift.
	{name: "advisor.ingest_group_size", unit: "count", better: "higher"},
	{name: "advisor.ingest_wait_ms", unit: "ms", better: "lower"},
	{name: "advisor.drift_check_us", unit: "us", better: "lower"},
	{name: "advisor.drift_recomputes", unit: "count", better: "lower"},
	{name: "advisor.observe_self_ms", unit: "ms", better: "lower"},
	{name: "advisor.telemetry_tax", unit: "ratio", better: "lower"},
	// algo and the six knives.
	{name: "algo.search_ms", unit: "ms", better: "lower"},
	{name: "algo.search_share", unit: "ratio", better: "lower"},
	{name: "algo.candidates_per_search", unit: "count", better: "lower"},
	{name: "algo.candidates_s", unit: "1/s", better: "higher"},
	{name: "algo.autopart_ms", unit: "ms", better: "lower"},
	{name: "algo.hillclimb_ms", unit: "ms", better: "lower"},
	{name: "algo.hyrise_ms", unit: "ms", better: "lower"},
	{name: "algo.navathe_ms", unit: "ms", better: "lower"},
	{name: "algo.o2p_ms", unit: "ms", better: "lower"},
	{name: "algo.trojan_ms", unit: "ms", better: "lower"},
	// cost.
	{name: "cost.workload_cost_us", unit: "us", better: "lower"},
	{name: "cost.partition_cost_ns", unit: "ns", better: "lower"},
	// storage.
	{name: "storage.materialize_ms", unit: "ms", better: "lower"},
	{name: "storage.materialize_mb_s", unit: "MB/s", better: "higher"},
	{name: "storage.page_read_gb_s", unit: "GB/s", better: "higher"},
	{name: "storage.page_read_file_gb_s", unit: "GB/s", better: "higher"},
	{name: "storage.bytes_read_per_op", unit: "B", better: "lower"},
	{name: "storage.repartition_ms", unit: "ms", better: "lower"},
	{name: "storage.repartition_mb", unit: "MB", better: "lower"},
	// operator.
	{name: "operator.build_us", unit: "us", better: "lower"},
	{name: "operator.vector_rows_s", unit: "rows/s", better: "higher"},
	{name: "operator.vector_gb_s", unit: "GB/s", better: "higher"},
	{name: "operator.row_rows_s", unit: "rows/s", better: "higher"},
	{name: "operator.vector_over_row", unit: "ratio", better: "higher"},
	{name: "operator.fill_ratio", unit: "ratio", better: "higher"},
	{name: "operator.exec_share", unit: "ratio", better: "lower"},
	{name: "operator.result_rows_per_op", unit: "rows", better: "lower"},
	// replay.
	{name: "replay.operators_ms", unit: "ms", better: "lower"},
	{name: "replay.self_ms", unit: "ms", better: "lower"},
	{name: "replay.layout_ms", unit: "ms", better: "lower"},
	// migrate.
	{name: "migrate.plan_us", unit: "us", better: "lower"},
	{name: "migrate.execute_ms", unit: "ms", better: "lower"},
	{name: "migrate.bytes_moved", unit: "B", better: "lower"},
	{name: "migrate.executed", unit: "count", better: "higher"},
	// statestore and vfs.
	{name: "statestore.append_us", unit: "us", better: "lower"},
	{name: "statestore.fsync_us", unit: "us", better: "lower"},
	{name: "statestore.fsyncs_per_op", unit: "count", better: "lower"},
	{name: "statestore.wal_bytes_per_obs", unit: "B", better: "lower"},
	{name: "statestore.wal_share", unit: "ratio", better: "lower"},
	{name: "statestore.snapshot_ms", unit: "ms", better: "lower"},
	{name: "statestore.snapshots", unit: "count", better: "lower"},
	{name: "statestore.recover_ms", unit: "ms", better: "lower"},
	{name: "statestore.recovered_records", unit: "count", better: "lower"},
	// telemetry: the cost of the scrape the shares above are read from.
	{name: "telemetry.scrape_ms", unit: "ms", better: "lower"},
	{name: "telemetry.scrape_kb", unit: "kB", better: "lower"},
	// The daemon process.
	{name: "proc.write_kb_per_op", unit: "kB", better: "lower"},
	{name: "proc.user_share", unit: "ratio", better: "higher"},
	{name: "proc.cpu_util", unit: "ratio", better: "higher"},
	// The traced pass itself.
	{name: "trace.ops", unit: "count", better: "higher"},
	{name: "trace.unattributed_share", unit: "ratio", better: "lower"},
}

// metrics maps a metric name to its measured value.
type metrics map[string]float64

// latencies returns the latencies in ms of the samples keep accepts.
func latencies(ss []sample, keep func(sample) bool) []float64 {
	var out []float64
	for _, s := range ss {
		if keep == nil || keep(s) {
			out = append(out, s.latencyMS())
		}
	}
	return out
}

// counts tallies a pass: ops attempted and ops failed, including
// acknowledged writes lost across the kill-restart check.
func (p *httpPass) counts() (attempted, failed int) {
	for _, s := range p.samples {
		if !s.ok {
			failed++
		}
	}
	if p.recovery != nil {
		failed += p.recovery.lost
	}
	return len(p.samples), failed
}

// endToEndMetrics computes the end-to-end metrics of one pass: for each, the
// value of every equal-time segment (for setup_s, of every set-up), then the
// median over them. The values are returned beside the medians: their spread
// is the pass's own noise floor.
func endToEndMetrics(p *httpPass) (metrics, map[string][]float64) {
	bounds := make([]float64, len(p.marks))
	for i, mk := range p.marks {
		bounds[i] = mk.at.Seconds()
	}
	n := len(bounds) - 1
	lat := make([][]float64, n)
	ok := make([]int, n)
	for _, s := range p.samples {
		k := segmentOf(bounds, s.end.Seconds())
		lat[k] = append(lat[k], s.latencyMS())
		if s.ok {
			ok[k]++
		}
	}
	var rates, p50, p95, cpu, rss []float64
	for k := 0; k < n; k++ {
		// A pass that ran out of stream before the deadline leaves its last
		// segments short or empty; a segment without ops has no latency and
		// no per-op cost.
		if len(lat[k]) == 0 {
			continue
		}
		rates = append(rates, float64(ok[k])/(bounds[k+1]-bounds[k]))
		p50 = append(p50, quantile(lat[k], 0.50))
		p95 = append(p95, quantile(lat[k], 0.95))
		cpu = append(cpu, 1000*(p.marks[k+1].proc.cpuSeconds()-p.marks[k].proc.cpuSeconds())/float64(len(lat[k])))
		rss = append(rss, float64(p.marks[k+1].proc.vmHWMKB)/1024)
	}
	parts := map[string][]float64{
		"ops_s": rates, "p50_ms": p50, "p95_ms": p95, "cpu_ms_per_op": cpu, "peak_rss_mb": rss, "setup_s": p.setups,
	}
	m := make(metrics, len(parts))
	for name, values := range parts {
		m[name] = median(values)
	}
	return m, parts
}

// histMean is the mean of a daemon histogram over the pass, scaled.
func histMean(p *httpPass, name string, scale float64) float64 {
	return scale * ratio(delta(p.before, p.after, name+"_sum"), delta(p.before, p.after, name+"_count"))
}

func httpSum(p *httpPass, path string) float64 {
	return delta(p.before, p.after, `knives_http_request_seconds_sum{path="`+path+`"}`)
}

// passLayerMetrics computes the per-layer metrics that need no tracing:
// client-side latencies, deltas of the daemon's always-on /metrics over the
// pass, and /proc accounting. exactUnits bounds the samples the per-op
// counts are taken over, so that they repeat exactly however far the pass
// got.
func passLayerMetrics(p *httpPass, exactUnits, nproc int) metrics {
	m := metrics{}
	ops := float64(len(p.samples))

	byPath := func(path string) []float64 {
		return latencies(p.samples, func(s sample) bool { return classPath[s.class] == path })
	}
	for _, e := range []struct {
		key, path string
		p95       bool
	}{
		{"advise", "/advise", true}, {"observe", "/observe", true}, {"query", "/query", true},
		{"replay", "/replay", false}, {"migrate", "/migrate", false},
	} {
		lat := byPath(e.path)
		m["http."+e.key+".p50_ms"] = quantile(lat, 0.50)
		if e.p95 {
			m["http."+e.key+".p95_ms"] = quantile(lat, 0.95)
		}
	}
	all := latencies(p.samples, nil)
	m["http.p99_ms"] = quantile(all, 0.99)
	_, m["http.max_ms"] = minMax(all)
	var clientSeconds, respBytes float64
	for _, s := range p.samples {
		clientSeconds += (s.end - s.start).Seconds()
		respBytes += float64(s.respBytes)
	}
	var serverSeconds float64
	for _, path := range []string{"/advise", "/observe", "/query", "/replay", "/migrate"} {
		serverSeconds += httpSum(p, path)
	}
	m["http.server_share"] = ratio(serverSeconds, clientSeconds)
	m["http.resp_kb_per_op"] = respBytes / 1024 / ops

	// Hit shares come from the responses, per endpoint: /query ops also
	// consult the advice cache, and counting those would report a hit share
	// on a workload that sends no /advise at all.
	var advises, adviseHits, queries, queryHits float64
	var exactOps, bytesRead, resultRows float64
	for _, s := range p.samples {
		switch classPath[s.class] {
		case "/advise":
			advises++
			if s.out.cached {
				adviseHits++
			}
		case "/query":
			queries++
			if s.out.cached {
				queryHits++
			}
		}
		if s.unit < exactUnits {
			exactOps++
			bytesRead += float64(s.out.bytesRead)
			resultRows += float64(s.out.resultRows)
		}
	}
	m["advisor.advise_hit_share"] = ratio(adviseHits, advises)
	m["advisor.exec_hit_share"] = ratio(queryHits, queries)
	m["storage.bytes_read_per_op"] = ratio(bytesRead, exactOps)
	m["operator.result_rows_per_op"] = ratio(resultRows, exactOps)

	m["advisor.gate_wait_ms_per_op"] = 1000 * delta(p.before, p.after, "knives_gate_wait_seconds_sum") / ops
	m["advisor.shed_share"] = delta(p.before, p.after, "knives_shed_total") / ops
	m["advisor.ingest_group_size"] = histMean(p, "knives_ingest_group_batches", 1)
	m["advisor.ingest_wait_ms"] = histMean(p, "knives_ingest_wait_seconds", 1e3)
	m["advisor.drift_check_us"] = histMean(p, "knives_drift_check_seconds", 1e6)

	m["algo.search_ms"] = histMean(p, "knives_search_seconds", 1e3)
	m["algo.search_share"] = ratio(delta(p.before, p.after, "knives_search_seconds_sum"), httpSum(p, "/advise"))
	m["operator.exec_share"] = ratio(delta(p.before, p.after, "knives_query_exec_seconds_sum"), httpSum(p, "/query"))

	m["statestore.append_us"] = histMean(p, "knives_wal_append_seconds", 1e6)
	m["statestore.fsync_us"] = histMean(p, "knives_wal_fsync_seconds", 1e6)
	m["statestore.fsyncs_per_op"] = delta(p.before, p.after, "knives_wal_fsync_seconds_count") / ops
	m["statestore.wal_share"] = ratio(delta(p.before, p.after, "knives_wal_append_seconds_sum"), httpSum(p, "/observe"))
	m["statestore.snapshot_ms"] = histMean(p, "knives_wal_snapshot_seconds", 1e3)
	m["statestore.snapshots"] = delta(p.before, p.after, "knives_wal_snapshots_total")
	if r := p.recovery; r != nil {
		m["statestore.recover_ms"] = float64(r.restart) / float64(time.Millisecond)
		m["statestore.recovered_records"] = float64(r.report.Records)
	}

	var scrapeMS, scrapeKB []float64
	for _, sc := range p.scrapes {
		scrapeMS = append(scrapeMS, float64(sc.took)/float64(time.Millisecond))
		scrapeKB = append(scrapeKB, float64(sc.bytes)/1024)
	}
	m["telemetry.scrape_ms"] = median(scrapeMS)
	m["telemetry.scrape_kb"] = median(scrapeKB)

	pre, post := p.marks[0].proc, p.marks[len(p.marks)-1].proc
	user := float64(post.utimeTicks - pre.utimeTicks)
	sys := float64(post.stimeTicks - pre.stimeTicks)
	m["proc.write_kb_per_op"] = float64(post.writeBytes-pre.writeBytes) / 1024 / ops
	m["proc.user_share"] = ratio(user, user+sys)
	m["proc.cpu_util"] = ratio((user+sys)/clockTick, p.wall().Seconds()*float64(nproc))
	return m
}
