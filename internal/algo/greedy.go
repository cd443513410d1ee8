package algo

import (
	"math/bits"
	"sync"

	"knives/internal/attrset"
	"knives/internal/cost"
	"knives/internal/partition"
	"knives/internal/schema"
)

// GreedyMerge runs the bottom-up merging loop shared by HillClimb, AutoPart,
// and HYRISE: in every iteration it evaluates all pairwise merges of the
// current parts and applies the one with the largest cost improvement,
// stopping when no merge improves. It returns the final parts and cost.
//
// This is the paper's "improved version of HillClimb": costs are computed
// on demand instead of from a precomputed dictionary of all column groups.
//
// Candidates are priced incrementally and from row sizes (see
// mergeEvaluator): a merge of parts i and j re-prices only the queries that
// reference i or j, from each part's row size and each query's combined
// referenced row size, and sums every other query's cached cost. Results —
// layouts, costs, and candidate counts — are bit-identical to a full
// workload-cost evaluation of partition.Merge's layout per candidate; the
// oracle that checks this lives in reference_test.go.
func GreedyMerge(tw schema.TableWorkload, m cost.Model, parts []attrset.Set, c *Counter) ([]attrset.Set, float64) {
	return GreedyMergeClustered(tw, m, parts, nil, c)
}

// GreedyMergeClustered is GreedyMerge preceded by one restricted pass per
// cluster: each pass runs the same loop over only the pairs of parts that
// both lie inside the cluster's attribute set, pricing every candidate
// against the whole table's layout, and the passes run in order against the
// evolving layout. This is HYRISE's within-subgraph step followed by its
// final merge across subgraphs. Every pass, the final unrestricted one
// included, counts one evaluation of its starting layout plus one per
// candidate.
func GreedyMergeClustered(tw schema.TableWorkload, m cost.Model, parts, clusters []attrset.Set, c *Counter) ([]attrset.Set, float64) {
	e := newMergeEvaluator(tw, m, parts)
	defer e.release()
	var n int64
	for _, member := range clusters {
		e.greedy(member, &n)
	}
	best := e.greedy(^attrset.Set(0), &n)
	c.Add(n)
	return e.parts, best
}

// greedy runs the merging loop over the pairs of parts inside member,
// counting evaluations into n, and returns the cost of the layout it stops
// at.
func (e *mergeEvaluator) greedy(member attrset.Set, n *int64) float64 {
	best := e.total()
	*n++
	for {
		var in uint64 // bit p set iff parts[p] lies inside member
		for p, s := range e.parts {
			if member.ContainsAll(s) {
				in |= 1 << uint(p)
			}
		}
		bi, bj, bCost := -1, -1, best
		for ri := in; ri != 0; ri &= ri - 1 {
			i := bits.TrailingZeros64(ri)
			for rj := ri & (ri - 1); rj != 0; rj &= rj - 1 {
				j := bits.TrailingZeros64(rj)
				cc := e.mergeCost(i, j)
				*n++
				if cc < bCost-improvementEps {
					bi, bj, bCost = i, j, cc
				}
			}
		}
		if bi < 0 {
			return best
		}
		e.apply(bi, bj)
		best = bCost
	}
}

// mergeEvaluator prices pairwise-merge candidates against a per-query cost
// vector for the current layout, in row sizes: it keeps the row size of
// every current part and, per query, the set of parts it references (a
// bitmask over part positions, walked in ascending order) and their
// combined row size. Merging parts i < j turns the query's terms into the
// same walk with j dropped and the union's row size at i's position, and
// its combined row size into the old one widened by whichever side the
// query did not reference.
//
// Bit-identity with full evaluation rests on three invariants:
//
//  1. Order preservation: partition.Merge puts the union at position i and
//     keeps every other part in its relative order, so the affected query's
//     referenced parts, walked in ascending position with the union at i,
//     are exactly the parts Model.QueryCost walks over the merged layout,
//     in its order — and the float terms are summed in that order.
//  2. Exact terms: row sizes are integers, so the union's width and the
//     combined width are the values QueryCost derives from attribute sets,
//     and each term is cost.PartitionCostMemo's price of the pair, which is
//     the model's PartitionCost float unchanged. A model that is not a
//     cost.PartitionCoster is priced through QueryCost over the candidate
//     layout instead, as BruteForce's generic search does.
//  3. Unaffected queries are priced by cached value: a query referencing
//     neither merged part references the same partitions in the same
//     relative order before and after the merge, so recomputing its cost
//     would reproduce the cached float exactly.
//
// Candidate totals are summed in query order, matching cost.WorkloadCost.
//
// Evaluators are pooled: everything but the returned parts is reused from
// one search to the next, so a search allocates nothing that grows with
// its candidate count.
type mergeEvaluator struct {
	tw      schema.TableWorkload
	m       cost.Model
	sized   bool // m is a cost.PartitionCoster, priced through memo
	memo    cost.PartitionCostMemo
	parts   []attrset.Set
	size    []int64 // size[p] = row size of parts[p]
	q       []queryState
	scratch []attrset.Set // candidate layout, for models priced through QueryCost
}

type queryState struct {
	ref    uint64  // bit p set iff the query references parts[p]
	total  int64   // combined row size of the referenced parts
	cost   float64 // weight * QueryCost(parts, query)
	weight float64
}

var evaluators = sync.Pool{New: func() any { return new(mergeEvaluator) }}

// newMergeEvaluator returns a pooled evaluator over a copy of parts, which
// must be disjoint and non-empty (so there are at most 64 of them).
func newMergeEvaluator(tw schema.TableWorkload, m cost.Model, parts []attrset.Set) *mergeEvaluator {
	e := evaluators.Get().(*mergeEvaluator)
	e.tw, e.m = tw, m
	pc, sized := m.(cost.PartitionCoster)
	if e.sized = sized; sized {
		e.memo.Reset(pc, tw.Table)
	}
	e.parts = partition.Clone(parts)
	e.size = e.size[:0]
	for _, p := range e.parts {
		e.size = append(e.size, tw.Table.SetSize(p))
	}
	e.q = e.q[:0]
	for _, tq := range tw.Queries {
		var q queryState
		for p, s := range e.parts {
			if s.Overlaps(tq.Attrs) {
				q.ref |= 1 << uint(p)
				q.total += e.size[p]
			}
		}
		q.weight = tq.Weight
		q.cost = q.weight * m.QueryCost(tw.Table, e.parts, tq.Attrs)
		e.q = append(e.q, q)
	}
	return e
}

// release returns the evaluator to the pool without anything it borrowed
// from the search, so the pool never keeps a table or a layout alive.
func (e *mergeEvaluator) release() {
	e.tw, e.m, e.parts = schema.TableWorkload{}, nil, nil
	e.memo.Reset(nil, nil)
	evaluators.Put(e)
}

// total sums the per-query costs in query order — the same additions, in the
// same order, as cost.WorkloadCost over the current layout.
func (e *mergeEvaluator) total() float64 {
	var t float64
	for k := range e.q {
		t += e.q[k].cost
	}
	return t
}

// mergeCost prices the merge of parts i < j without mutating state.
func (e *mergeEvaluator) mergeCost(i, j int) float64 {
	if !e.sized {
		e.candidate(i, j)
	}
	pair := uint64(1)<<uint(i) | uint64(1)<<uint(j)
	var total float64
	for k := range e.q {
		q := &e.q[k]
		if q.ref&pair == 0 {
			total += q.cost
			continue
		}
		wq := q.weight * e.mergedCost(k, i, j)
		total += wq
	}
	return total
}

// mergedCost returns query k's unweighted cost over the layout with parts
// i < j merged. For unsized models the candidate layout must be in scratch.
func (e *mergeEvaluator) mergedCost(k, i, j int) float64 {
	if !e.sized {
		return e.m.QueryCost(e.tw.Table, e.scratch, e.tw.Queries[k].Attrs)
	}
	q := &e.q[k]
	total := e.mergedTotal(q, i, j)
	if total == 0 {
		return 0
	}
	var c float64
	for r := (q.ref | 1<<uint(i)) &^ (1 << uint(j)); r != 0; r &= r - 1 {
		p := bits.TrailingZeros64(r)
		rowSize := e.size[p]
		if p == i {
			rowSize += e.size[j]
		}
		c += e.memo.Cost(rowSize, total)
	}
	return c
}

// mergedTotal returns q's combined referenced row size once parts i and j
// merge: the old one widened by whichever side q did not reference.
func (e *mergeEvaluator) mergedTotal(q *queryState, i, j int) int64 {
	total := q.total
	if q.ref&(1<<uint(i)) == 0 {
		total += e.size[i]
	}
	if q.ref&(1<<uint(j)) == 0 {
		total += e.size[j]
	}
	return total
}

// candidate writes partition.Merge(parts, i, j) into scratch.
func (e *mergeEvaluator) candidate(i, j int) {
	e.scratch = append(e.scratch[:0], e.parts...)
	e.scratch[i] = e.parts[i].Union(e.parts[j])
	e.scratch = append(e.scratch[:j], e.scratch[j+1:]...)
}

// apply commits the merge of parts i < j: the affected queries get their
// new cost, combined row size and references, and every query's references
// above j move down one position.
func (e *mergeEvaluator) apply(i, j int) {
	if !e.sized {
		e.candidate(i, j)
	}
	pair := uint64(1)<<uint(i) | uint64(1)<<uint(j)
	below := uint64(1)<<uint(j) - 1
	for k := range e.q {
		q := &e.q[k]
		ref := q.ref
		if ref&pair != 0 {
			q.cost = q.weight * e.mergedCost(k, i, j)
			q.total = e.mergedTotal(q, i, j)
			ref = (ref | 1<<uint(i)) &^ (1 << uint(j))
		}
		q.ref = ref&below | ref>>uint(j+1)<<uint(j)
	}
	e.parts[i] = e.parts[i].Union(e.parts[j])
	e.parts = append(e.parts[:j], e.parts[j+1:]...)
	e.size[i] += e.size[j]
	e.size = append(e.size[:j], e.size[j+1:]...)
}
