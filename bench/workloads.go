package main

// workload is one traffic mix and the daemon it runs against.
type workload struct {
	name string
	why  string
	// durable workloads run the daemon on a WAL directory (fsync per
	// append, a snapshot every 1024 events — the daemon's defaults) and end
	// with the kill-restart check.
	durable bool
	// prewarm starts the daemon with -prewarm tpch -sf 10.
	prewarm bool
	// serverArgs are further daemon flags. They bound waiting, not work, so
	// the traced pass — one op at a time, in-process — has no use for them.
	serverArgs []string
	// units is the length of the generated stream. A pass stops at its
	// deadline or at the end of the stream, whichever comes first; the
	// lengths leave room for a daemon well over half again as fast as the
	// reference box's to still measure for the full duration.
	units int
	// traceUnits is the prefix of the stream the traced pass replays
	// in-process. Fixed, so counts taken there repeat exactly.
	traceUnits int
	// block is the number of units the stream's schedule repeats over, for
	// streams that only come in whole blocks; 0 means any length.
	block  int
	stream func(seed int64, units int) *stream
}

// daemonArgs assembles the daemon's command line.
func (w *workload) daemonArgs(walDir string) []string {
	var args []string
	if w.durable {
		args = append(args, "-wal-dir", walDir)
	}
	if w.prewarm {
		args = append(args, "-prewarm", "tpch", "-sf", "10")
	}
	return append(args, w.serverArgs...)
}

var workloads = []*workload{
	{
		name:       "advise-search",
		why:        "never-seen tables miss the advice cache, so the six-heuristic portfolio search is nearly all server time; storage, operator and WAL idle",
		units:      7000,
		traceUnits: 100,
		stream:     adviseSearchStream,
	},
	{
		name:       "observe-ingest",
		why:        "batched observes of 8 tables x 32 queries on a prewarmed durable daemon: wire decode, group commit, drift pricing, WAL append+fsync; no search, no scan",
		durable:    true,
		prewarm:    true,
		units:      12000,
		traceUnits: 200,
		stream:     observeIngestStream,
	},
	{
		name:       "query-scan",
		why:        "same lineitem table, distinct predicate per op: advice hits, the 256-entry exec cache misses, every request re-materializes 20k rows and runs 17 pipelines",
		units:      2500,
		traceUnits: 24,
		stream:     queryScanStream,
	},
	{
		name:    "mixed",
		why:     "seeded schedule over every endpoint on the production flags: hits beside misses, repartition writes beside scan reads, a gain bought elsewhere at another use's expense shows here",
		durable: true,
		prewarm: true,
		serverArgs: []string{
			"-request-timeout", "30s", "-max-inflight", "8", "-max-queue", "32",
		},
		// 120 blocks register 120*(5 cold + 1 drift) + 64 hot + 8 TPC-H = 792
		// tables, under the 1024 trackers the daemon keeps: a 1025th would
		// evict the TPC-H trackers the observe ops feed.
		units:      120 * mixBlockUnits,
		traceUnits: 2 * mixBlockUnits,
		block:      mixBlockUnits,
		stream:     mixedStream,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// sizes returns the stream length and traced prefix of a run. Smoke runs
// check the harness, not the program: 2 % of the stream, a tenth of the
// traced prefix, in whole blocks where the stream has them.
func (w *workload) sizes(smoke bool) (units, traceUnits int) {
	if !smoke {
		return w.units, w.traceUnits
	}
	return w.wholeBlocks(w.units / 50), w.wholeBlocks(max(w.traceUnits/10, 3))
}

// wholeBlocks rounds n down to whole blocks, but not below one.
func (w *workload) wholeBlocks(n int) int {
	block := max(w.block, 1)
	return max(n/block, 1) * block
}
