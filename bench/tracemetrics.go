package main

import (
	"strings"

	"knives/internal/advisor"
)

// knives are the portfolio's heuristics by the name their per-knife metric
// carries.
var knives = []string{"autopart", "hillclimb", "hyrise", "navathe", "o2p", "trojan"}

// traceMetrics derives the per-layer metrics that need spans. bareSpans are
// the observe spans of the twin service without telemetry; stats are the
// traced service's counters after the prefix; p is the untraced pass the
// traced one is compared with.
func traceMetrics(res *traceResult, bareSpans []span, stats advisor.Stats, p *httpPass) metrics {
	m := metrics{"trace.ops": float64(res.ops)}
	byID := make(map[int]span, len(res.spans))
	for _, s := range res.spans {
		byID[s.ID] = s
	}
	// Seconds by span name, over the ops of the prefix only: set-up ops run
	// under the same span names and must not enter a mean.
	secs := make(map[string][]float64)
	for _, s := range res.spans {
		if s.Op >= 0 {
			secs[s.Name] = append(secs[s.Name], float64(s.dur())/1e9)
		}
	}
	m["advisor.wire_decode_us"] = mean(secs["advisor.wire_decode"]) * 1e6
	m["advisor.fingerprint_us"] = mean(secs["advisor.fingerprint"]) * 1e6
	m["advisor.advise_hit_us"] = mean(secs["advisor.advise_hit"]) * 1e6
	m["advisor.advise_miss_ms"] = mean(secs["advisor.advise_miss"]) * 1e3
	m["advisor.drift_recomputes"] = float64(stats.Recomputes)

	// Steady observes: self time of the service call, and the same call's
	// mean against the twin without a telemetry registry.
	steady := func(spans []span, byID map[int]span) (all []span) {
		for _, s := range spans {
			if s.Name == "advisor.observe_batch" && s.Op >= 0 && byID[s.Parent].Name == "op:"+clsObserve {
				all = append(all, s)
			}
		}
		return all
	}
	self := selfTimes(res.spans)
	var observeSelf, withTelemetry, without []float64
	for _, s := range steady(res.spans, byID) {
		observeSelf = append(observeSelf, float64(self[s.ID])/1e9)
		withTelemetry = append(withTelemetry, float64(s.dur())/1e9)
	}
	bareByID := make(map[int]span, len(bareSpans))
	for _, s := range bareSpans {
		bareByID[s.ID] = s
	}
	for _, s := range steady(bareSpans, bareByID) {
		without = append(without, float64(s.dur())/1e9)
	}
	m["advisor.observe_self_ms"] = mean(observeSelf) * 1e3
	m["advisor.telemetry_tax"] = ratio(mean(withTelemetry), mean(without))

	var knifeSeconds float64
	for _, k := range knives {
		m["algo."+k+"_ms"] = mean(secs["algo."+k]) * 1e3
		for _, s := range secs["algo."+k] {
			knifeSeconds += s
		}
	}
	cands := float64(res.counts["algo.candidates"])
	m["algo.candidates_per_search"] = ratio(cands, float64(res.counts["advisor.searches"]))
	m["algo.candidates_s"] = ratio(cands, knifeSeconds)

	m["migrate.executed"] = float64(res.counts["migrate.executed"])
	m["migrate.bytes_moved"] = float64(res.counts["migrate.bytes_moved"])
	m["statestore.wal_bytes_per_obs"] = ratio(float64(res.counts["vfs.wal_bytes"]), float64(res.counts["advisor.observed_queries"]))

	m["trace.unattributed_share"] = unattributedShare(res.spans, p)
	return m
}

// unattributedShare is the part of the untraced latency no layer span
// explains: 1 - (sum of an op's layer spans) / (client latency of the same
// op class over HTTP), weighted by how often each class ran in the untraced
// pass. HTTP, response encoding and everything concurrency adds live here.
func unattributedShare(spans []span, p *httpPass) float64 {
	// Layer seconds per op: the root's direct children.
	layer := make(map[int]float64) // root span id -> summed child seconds
	class := make(map[int]string)  // root span id -> op class
	for _, s := range spans {
		if s.Parent == 0 && s.Op >= 0 {
			if c, ok := strings.CutPrefix(s.Name, "op:"); ok {
				class[s.ID] = c
			}
		}
	}
	for _, s := range spans {
		if _, ok := class[s.Parent]; ok {
			layer[s.Parent] += float64(s.dur()) / 1e9
		}
	}
	traced := make(map[string][]float64)
	for id, c := range class {
		traced[c] = append(traced[c], layer[id])
	}
	untraced := make(map[string][]float64)
	for _, s := range p.samples {
		untraced[s.class] = append(untraced[s.class], (s.end - s.start).Seconds())
	}
	var explained, total float64
	for c, lat := range untraced {
		if len(traced[c]) == 0 {
			continue
		}
		n := float64(len(lat))
		explained += n * mean(traced[c])
		total += n * mean(lat)
	}
	if total == 0 {
		return 0
	}
	return 1 - explained/total
}
