// Package o2p implements One-dimensional Online Partitioning (Jindal &
// Dittrich, BIRTE 2011): Navathe's top-down algorithm transformed into an
// online algorithm that processes the workload one query at a time.
//
// For every incoming query, O2P folds the query into the attribute affinity
// matrix and incrementally re-clusters only the affected attributes
// (adapting the bond energy algorithm to an online setting). Partitioning
// analysis is greedy: each step creates exactly one new vertical partition
// by applying the best remembered split, and dynamic programming memoizes
// every segment's best split so that after a split only the two new
// segments are re-analyzed. Splits are scored with Navathe's affinity
// objective z = E(upper)·E(lower) − cross² (byte widths and the I/O cost
// model are invisible to the search; the cost model only prices the final
// layout); splitting stops when no segment has an acceptable split left.
//
// The incremental clustering gives O2P a slightly different attribute
// ordering than batch Navathe, which is why their layouts and costs differ
// slightly in the paper's Figures 3 and 14 despite the shared machinery.
package o2p

import (
	"time"

	"knives/internal/affinity"
	"knives/internal/algo"
	"knives/internal/algo/navathe"
	"knives/internal/attrset"
	"knives/internal/cost"
	"knives/internal/schema"
)

// O2P is the algorithm instance. The zero value is ready to use.
type O2P struct{}

// New returns an O2P instance.
func New() *O2P { return &O2P{} }

// Name implements algo.Algorithm.
func (*O2P) Name() string { return "O2P" }

// segment is a contiguous slice of the clustered attribute ordering with
// its memoized best split.
type segment struct {
	attrs   []int
	splitAt int     // 0 when no acceptable split exists
	z       float64 // memoized z of the best split
}

// cluster is the online phase: fold each query into the affinity matrix and
// re-cluster only the attributes it touched.
func cluster(tw schema.TableWorkload) (*affinity.Matrix, []int) {
	nAttrs := tw.Table.NumAttrs()
	m := affinity.NewMatrix(nAttrs)
	order := make([]int, nAttrs)
	for i := range order {
		order[i] = i
	}
	for _, q := range tw.Queries {
		m.AddQuery(q.Attrs, q.Weight)
		order = m.Reinsert(order, q.Attrs)
	}
	return m, order
}

// Partition implements algo.Algorithm. It consumes tw.Queries as a stream,
// exactly as an online system would; the reported optimization time covers
// the whole stream.
func (o *O2P) Partition(tw schema.TableWorkload, model cost.Model) (algo.Result, error) {
	start := time.Now()
	m, order := cluster(tw)
	return split(tw, model, m, order, start)
}

// split is the partitioning analysis over a clustered ordering.
func split(tw schema.TableWorkload, model cost.Model, m *affinity.Matrix, order []int, start time.Time) (algo.Result, error) {
	var c algo.Counter

	// Partitioning analysis: one best split per step, memoized per segment.
	analyze := func(attrs []int) *segment {
		k, z := navathe.BestSplit(m, attrs, &c)
		return &segment{attrs: attrs, splitAt: k, z: z}
	}
	segs := []*segment{analyze(order)}
	for {
		bi := -1
		for i, s := range segs {
			if s.splitAt > 0 && (bi < 0 || s.z > segs[bi].z) {
				bi = i
			}
		}
		if bi < 0 {
			break
		}
		seg := segs[bi]
		next := make([]*segment, 0, len(segs)+1)
		next = append(next, segs[:bi]...)
		next = append(next, analyze(seg.attrs[:seg.splitAt]), analyze(seg.attrs[seg.splitAt:]))
		next = append(next, segs[bi+1:]...)
		segs = next
	}

	parts := make([]attrset.Set, len(segs))
	for i, s := range segs {
		parts[i] = attrset.Of(s.attrs...)
	}
	costVal := c.Eval(model, tw, parts)
	return algo.Finish(tw, parts, costVal, &c, start)
}
