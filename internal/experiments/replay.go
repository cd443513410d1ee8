package experiments

import (
	"fmt"
	"sort"

	"knives/internal/algo"
	"knives/internal/cost"
	"knives/internal/partition"
	"knives/internal/replay"
	"knives/internal/schema"
)

// replaySampleRows caps the materialized rows per table for ext-replay. The
// measured-equals-predicted guarantee holds at any row count; the sample
// only has to be large enough that the measured ranking across layouts is
// not an artifact of tiny tables.
const replaySampleRows = 50_000

// ExtReplay re-derives Figure 3's verdict from EXECUTED I/O instead of
// estimates: every algorithm's full-scale advised layouts (the exact
// layouts fig3 prices) are materialized through the storage engine at a
// sampled row count, the whole TPC-H workload is replayed against the
// pages, and the measured simulated time is reported next to the cost
// model's prediction for the same sampled tables — which it must equal
// bit for bit.
//
// Two rankings frame the result. "rank measured" orders the layouts by
// executed time; it must reproduce the estimated-cost ranking computed
// INDEPENDENTLY (cost.WorkloadCost over the sampled tables — fig3's exact
// methodology at the replayed configuration), which is the claim fig3
// rests on: estimates order layouts the way execution does. "rank @SF10"
// is fig3's full-scale ordering, shown for reference: the leaders and Row
// agree across scales, while midfield positions shift, because at a
// sampled row count the per-partition seek floor weighs more than at SF 10
// — the same configuration sensitivity Figures 8-13 sweep.
//
// All times in this report are simulated (virtual-disk) seconds, a pure
// function of the deterministic data and layouts — no wall clock enters,
// so the report is byte-stable and golden-diffed without masking.
func ExtReplay(s *Suite) (*Report, error) {
	if err := s.Prewarm(evaluatedAlgorithms...); err != nil {
		return nil, err
	}
	r := &Report{
		ID:     "ext-replay",
		Title:  "Measured replay of advised layouts vs cost-model predictions (TPC-H, sampled rows)",
		Header: []string{"layout", "measured (s)", "estimated (s)", "max |delta|", "exact", "rank measured", "rank estimated", "rank @SF10"},
	}
	m := s.model()
	tws := s.Bench.TableWorkloads()

	type line struct {
		name      string
		measured  float64
		estimated float64 // cost.WorkloadCost over the sampled tables (fig3 at this scale)
		maxDelta  float64
		exact     bool
		fullCost  float64 // full-scale estimated cost (fig3's SF10 quantity)
	}

	// The sampled twins of the benchmark tables: same columns, capped rows.
	// Attribute sets are positional, so full-scale layouts transfer.
	sampled := make([]schema.TableWorkload, len(tws))
	for i, tw := range tws {
		st := tw.Table
		if st.Rows > replaySampleRows {
			var err error
			st, err = schema.NewTable(tw.Table.Name, replaySampleRows, tw.Table.Columns)
			if err != nil {
				return nil, err
			}
		}
		sampled[i] = schema.TableWorkload{Table: st, Queries: tw.Queries}
	}
	names := append(append([]string{}, evaluatedAlgorithms...), "Column", "Row")
	lines := make([]line, len(names))
	for li, name := range names {
		layouts, fullCost, err := s.familyLayouts(name)
		if err != nil {
			return nil, err
		}
		// Fan the per-table replays out; aggregation below runs in table
		// order, so the report is identical at any parallelism.
		reps := make([]*replay.TableReplay, len(tws))
		err = algo.FanOut(len(tws), func(i int) (err error) {
			reps[i], err = replay.Layout(tws[i], layouts[i], name, s.sampleConfig(replaySampleRows))
			return err
		})
		if err != nil {
			return nil, err
		}
		l := line{name: name, exact: true, fullCost: fullCost}
		for i, rep := range reps {
			l.measured += rep.MeasuredTotal
			if d := rep.MaxAbsDelta(); d > l.maxDelta {
				l.maxDelta = d
			}
			l.exact = l.exact && rep.Exact()
			// The independent estimate: fig3's pricing (cost.WorkloadCost)
			// over the sampled table and the same layout. Exactness demands
			// this equal the replay's own prediction AND measurement.
			sl, err := partition.New(sampled[i].Table, layouts[i].Parts)
			if err != nil {
				return nil, err
			}
			est := cost.WorkloadCost(m, sampled[i], sl.Canonical().Parts)
			l.estimated += est
			if est != rep.MeasuredTotal {
				l.exact = false
				if d := est - rep.MeasuredTotal; d > l.maxDelta {
					l.maxDelta = d
				} else if -d > l.maxDelta {
					l.maxDelta = -d
				}
			}
		}
		lines[li] = l
	}

	rankBy := func(key func(line) float64) map[string]int {
		order := make([]int, len(lines))
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(a, b int) bool { return key(lines[order[a]]) < key(lines[order[b]]) })
		ranks := make(map[string]int, len(lines))
		for pos, idx := range order {
			ranks[lines[idx].name] = pos + 1
		}
		return ranks
	}
	measuredRank := rankBy(func(l line) float64 { return l.measured })
	estimatedRank := rankBy(func(l line) float64 { return l.estimated })
	fig3Rank := rankBy(func(l line) float64 { return l.fullCost })

	agree, exact := true, true
	for _, l := range lines {
		r.AddRow(l.name, fmtSeconds(l.measured), fmtSeconds(l.estimated),
			fmt.Sprintf("%g", l.maxDelta), fmt.Sprintf("%v", l.exact),
			fmt.Sprintf("%d", measuredRank[l.name]), fmt.Sprintf("%d", estimatedRank[l.name]),
			fmt.Sprintf("%d", fig3Rank[l.name]))
		agree = agree && measuredRank[l.name] == estimatedRank[l.name]
		exact = exact && l.exact
	}
	r.AddNote("measured == estimated bit for bit for every layout: %v", exact)
	r.AddNote("measured ranking reproduces the estimated-cost (fig3) ranking at the replayed scale: %v", agree)
	r.AddNote("rank @SF10 is fig3's full-scale ordering; leaders and Row agree, midfield shifts with scale (seek floors, cf. figs 8-13)")
	r.AddNote("times are simulated (virtual-disk) seconds over %d-row samples; deterministic, no wall clock", replaySampleRows)
	return r, nil
}
