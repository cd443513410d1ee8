// Package hyrise implements the layout algorithm of HYRISE (Grund et al.,
// PVLDB 2010) under the paper's unified setting.
//
// HYRISE is a multi-level algorithm designed to bound the cost of layout
// search on wide tables:
//
//  1. Compute the primary partitions (identical to AutoPart's atomic
//     fragments): attribute groups always accessed together.
//  2. Build an affinity graph over the primary partitions, with edge
//     weights equal to the co-access frequency of the two partitions.
//  3. Split the graph into subgraphs of at most K primary partitions each
//     with a K-way graph partitioner (here: greedy heaviest-edge
//     contraction under the size cap, a classic multilevel-coarsening
//     heuristic).
//  4. Within each subgraph, greedily merge the primary partitions that
//     yield the largest cost improvement, pricing every candidate against
//     the whole table's layout. This is the bottom-up algorithms' own loop,
//     algo.GreedyMerge's, restricted to pairs inside the subgraph
//     (algo.GreedyMergeClustered).
//  5. Finally, try to combine partitions across subgraphs: the same loop,
//     unrestricted.
//
// Because steps 3-4 commit to merges inside a subgraph before the global
// picture is visible — and merges are never undone — HYRISE can land on
// slightly suboptimal layouts for tables whose fragment count exceeds K
// (the paper measures it 1.58% off BruteForce on TPC-H, Table 5).
package hyrise

import (
	"sort"
	"time"

	"knives/internal/algo"
	"knives/internal/attrset"
	"knives/internal/cost"
	"knives/internal/partition"
	"knives/internal/schema"
)

// HYRISE is the algorithm instance.
type HYRISE struct {
	// K caps the number of primary partitions per subgraph.
	// Zero means the default of 6.
	K int
}

// New returns a HYRISE instance with the default K.
func New() *HYRISE { return &HYRISE{} }

// Name implements algo.Algorithm.
func (*HYRISE) Name() string { return "HYRISE" }

// Partition implements algo.Algorithm.
func (h *HYRISE) Partition(tw schema.TableWorkload, model cost.Model) (algo.Result, error) {
	start := time.Now()
	var c algo.Counter
	k := h.K
	if k <= 0 {
		k = 6
	}

	fragments := partition.Fragments(tw)
	clusters := kwayPartition(tw, fragments, k)

	// Every fragment starts as its own partition; clusters are merged one
	// after another against the evolving layout, then across clusters.
	members := make([]attrset.Set, len(clusters))
	for ci, cluster := range clusters {
		for _, fi := range cluster {
			members[ci] = members[ci].Union(fragments[fi])
		}
	}
	parts, costVal := algo.GreedyMergeClustered(tw, model, fragments, members, &c)
	return algo.Finish(tw, parts, costVal, &c, start)
}

// kwayPartition groups fragment indexes into clusters of at most k by
// contracting the heaviest co-access edges first (union-find with a size
// cap). Ties break on lower index pairs, keeping the result deterministic.
func kwayPartition(tw schema.TableWorkload, fragments []attrset.Set, k int) [][]int {
	n := len(fragments)
	type edge struct {
		i, j int
		w    float64
	}
	var edges []edge
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			var w float64
			for _, q := range tw.Queries {
				if q.Attrs.Overlaps(fragments[i]) && q.Attrs.Overlaps(fragments[j]) {
					w += q.Weight
				}
			}
			if w > 0 {
				edges = append(edges, edge{i, j, w})
			}
		}
	}
	sort.Slice(edges, func(a, b int) bool {
		if edges[a].w != edges[b].w {
			return edges[a].w > edges[b].w
		}
		if edges[a].i != edges[b].i {
			return edges[a].i < edges[b].i
		}
		return edges[a].j < edges[b].j
	})

	parent := make([]int, n)
	size := make([]int, n)
	for i := range parent {
		parent[i], size[i] = i, 1
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, e := range edges {
		ri, rj := find(e.i), find(e.j)
		if ri == rj || size[ri]+size[rj] > k {
			continue
		}
		parent[rj] = ri
		size[ri] += size[rj]
	}

	groups := make(map[int][]int)
	var roots []int
	for i := 0; i < n; i++ {
		r := find(i)
		if _, ok := groups[r]; !ok {
			roots = append(roots, r)
		}
		groups[r] = append(groups[r], i)
	}
	sort.Ints(roots)
	out := make([][]int, 0, len(roots))
	for _, r := range roots {
		out = append(out, groups[r])
	}
	return out
}
