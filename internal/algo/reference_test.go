package algo

import (
	"testing"

	"knives/internal/attrset"
	"knives/internal/cost"
	"knives/internal/partition"
	"knives/internal/schema"
)

// GreedyMergeReference is the non-incremental merging loop: every candidate
// is priced with a full workload-cost evaluation of partition.Merge's
// layout. It is the equivalence oracle for GreedyMerge (the size-vector
// kernel must reproduce its layouts, costs, and candidate counts bit for
// bit) and the baseline of the evaluations-per-second benchmark.
func GreedyMergeReference(tw schema.TableWorkload, m cost.Model, parts []attrset.Set, c *Counter) ([]attrset.Set, float64) {
	return mergeWithinReference(tw, m, partition.Clone(parts), ^attrset.Set(0), c)
}

// greedyMergeClusteredReference is HYRISE's search as written before it
// shared GreedyMerge's loop: one full-evaluation loop per cluster over the
// pairs inside it, then GreedyMergeReference across clusters. It is the
// oracle for GreedyMergeClustered.
func greedyMergeClusteredReference(tw schema.TableWorkload, m cost.Model, parts, clusters []attrset.Set, c *Counter) ([]attrset.Set, float64) {
	state := partition.Clone(parts)
	for _, member := range clusters {
		state, _ = mergeWithinReference(tw, m, state, member, c)
	}
	return GreedyMergeReference(tw, m, state, c)
}

// mergeWithinReference greedily merges the parts lying inside member,
// evaluating each candidate against the full layout.
func mergeWithinReference(tw schema.TableWorkload, m cost.Model, parts []attrset.Set, member attrset.Set, c *Counter) ([]attrset.Set, float64) {
	best := c.Eval(m, tw, parts)
	for {
		bi, bj, bCost := -1, -1, best
		for i := 0; i < len(parts); i++ {
			if !member.ContainsAll(parts[i]) {
				continue
			}
			for j := i + 1; j < len(parts); j++ {
				if !member.ContainsAll(parts[j]) {
					continue
				}
				cand := partition.Merge(parts, i, j)
				if cc := c.Eval(m, tw, cand); cc < bCost-improvementEps {
					bi, bj, bCost = i, j, cc
				}
			}
		}
		if bi < 0 {
			return parts, best
		}
		parts = partition.Merge(parts, bi, bj)
		best = bCost
	}
}

func BenchmarkGreedyMergeReference(b *testing.B) { benchGreedy(b, GreedyMergeReference) }
