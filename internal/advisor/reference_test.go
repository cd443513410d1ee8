package advisor

import (
	"math"

	"knives/internal/algo/o2p"
	"knives/internal/attrset"
	"knives/internal/cost"
	"knives/internal/partition"
	"knives/internal/schema"
)

// rawShadowCheck is the drift check as it was priced before the shadow was
// restated over the window's attribute-set summary: O2P over every retained
// query in log order, the shadow priced by O2P itself and the advised
// layout by cost.WorkloadCost, both over the log. On a window in which no
// attribute set repeats, the summary is the log and checkWindow must equal
// this bit for bit.
func rawShadowCheck(m cost.Model, t *schema.Table, log []schema.TableQuery, advised []attrset.Set) (shadow partition.Partitioning, shadowCost, advisedCost float64) {
	ptw := schema.TableWorkload{Table: t, Queries: log}
	res, err := o2p.New().Partition(ptw, m)
	if err != nil {
		panic(err)
	}
	return res.Partitioning, res.Cost, cost.WorkloadCost(m, ptw, advised)
}

// summaryReference is the restated shadow built the dumb way: the summary
// by a quadratic scan of the log, O2P over it, and both layouts priced by
// cost.WorkloadCost over the full log — no index, no per-set memo.
func summaryReference(m cost.Model, t *schema.Table, log []schema.TableQuery, advised []attrset.Set) windowCheck {
	var summary []schema.TableQuery
	for _, q := range log {
		seen := false
		for k := range summary {
			if summary[k].Attrs == q.Attrs {
				summary[k].Weight += q.Weight
				seen = true
				break
			}
		}
		if !seen {
			summary = append(summary, q)
		}
	}
	shadow := o2p.Layout(schema.TableWorkload{Table: t, Queries: summary})
	ptw := schema.TableWorkload{Table: t, Queries: log}
	return windowCheck{
		shadow:      shadow,
		shadowCost:  cost.WorkloadCost(m, ptw, shadow),
		advisedCost: cost.WorkloadCost(m, ptw, advised),
	}
}

// referenceRatio is the verdict's ratio from the two costs, spelled out
// again: the relative excess of the advised layout over the shadow, +Inf
// for a positive cost against a free shadow, 0 when both are free.
func referenceRatio(shadowCost, advisedCost float64) float64 {
	if shadowCost > 0 {
		return (advisedCost - shadowCost) / shadowCost
	}
	if advisedCost > 0 {
		return math.Inf(1)
	}
	return 0
}

// repeatFree reports whether no attribute set occurs twice in log.
func repeatFree(log []schema.TableQuery) bool {
	seen := make(map[attrset.Set]bool, len(log))
	for _, q := range log {
		if seen[q.Attrs] {
			return false
		}
		seen[q.Attrs] = true
	}
	return true
}
