// Package trojan implements the Trojan data layouts algorithm (Jindal,
// Quiané-Ruiz & Dittrich, SoCC 2011) under the paper's unified setting.
//
// Trojan is the only threshold-pruning algorithm in the study. It proceeds
// in three phases:
//
//  1. Enumerate all column groups over the referenced attributes and score
//     each with an interestingness measure based on the mutual information
//     between the attributes' access-indicator variables.
//  2. Prune groups whose interestingness falls below a threshold.
//  3. Merge the surviving groups into a complete, disjoint set of vertical
//     partitions by solving a 0/1-knapsack-style optimization; with
//     replication stripped (as the paper requires) the knapsack mapping
//     collapses to an exact-cover dynamic program over attribute bitmasks
//     that maximizes total interestingness × group size.
//
// Query grouping and per-replica layouts — Trojan's HDFS-specific features —
// are removed, exactly as the paper adapts the algorithm. Note the cost
// model never guides the search; it only prices the final layout. That is
// why Trojan can be near-optimal on TPC-H yet far off on SSB (Table 5): its
// heuristic value function is oblivious to partition byte widths.
//
// The three phases are computed by a kernel (kernel.go) whose output equals
// the direct transcription's — kept in reference_test.go as the oracle —
// part for part, cost bit for cost bit and candidate for candidate:
//
//   - Scoring costs O(1) per group instead of O(k²): pair sums inside each
//     half of the attributes and across the halves come from small tables. A
//     reordered float sum may not decide a threshold, so the tabulated sum
//     only filters, 1e-9 wide of the threshold where its reordering error is
//     under 1e-11, and whatever it cannot rule out is re-scored the
//     reference's way.
//   - The cover DP runs over the attributes of the surviving groups only,
//     2^u states rather than 2^r: every other attribute can only be a
//     singleton of value 0, and the smaller DP performs the reference's float
//     operations in the reference's order.
//   - Where most groups survive a DP state walks its own submasks rather than
//     the survivor list, which bounds the DP by 3^u steps (the list scan is
//     ~4^r/3).
//
// DESIGN.md, "Trojan kernel", has the error bound and the induction.
package trojan

import (
	"fmt"
	"math"
	"math/bits"
	"time"

	"knives/internal/algo"
	"knives/internal/attrset"
	"knives/internal/cost"
	"knives/internal/schema"
)

// Trojan is the algorithm instance.
type Trojan struct {
	// Threshold is the minimum interestingness for a multi-attribute column
	// group to survive pruning, in [0, 1]. Zero means the default of 0.7.
	Threshold float64
	// MaxReferencedAttrs caps the enumeration width (2^r column groups).
	// Zero means the default of 20.
	MaxReferencedAttrs int
}

// New returns a Trojan instance with default parameters.
func New() *Trojan { return &Trojan{} }

// Name implements algo.Algorithm.
func (*Trojan) Name() string { return "Trojan" }

// Partition implements algo.Algorithm.
func (tr *Trojan) Partition(tw schema.TableWorkload, model cost.Model) (algo.Result, error) {
	start := time.Now()
	var c algo.Counter

	threshold := tr.Threshold
	if threshold == 0 {
		threshold = 0.7
	}
	maxRef := tr.MaxReferencedAttrs
	if maxRef == 0 {
		maxRef = 20
	}

	referenced := tw.ReferencedAttrs().Attrs()
	r := len(referenced)
	if r > maxRef {
		return algo.Result{}, fmt.Errorf("trojan: table %s has %d referenced attrs, cap is %d: %w",
			tw.Table.Name, r, maxRef, algo.ErrDeclined)
	}
	// Unreferenced attributes form one partition aside, as in the other
	// algorithms' layouts for TPC-H (paper, Appendix B).
	unreferenced := tw.Table.AllAttrs().Minus(tw.ReferencedAttrs())

	// Phases 1+2: every one of the 2^r - 1 column groups is a candidate;
	// the interesting multi-attribute ones survive. Phase 3: the best
	// disjoint cover by survivors and (value 0) singletons.
	c.Add(int64(1)<<uint(r) - 1)
	chosen, _ := cover(interestingGroups(pairwiseNMI(tw, referenced), r, threshold), r)

	parts := make([]attrset.Set, 0, len(chosen)+1)
	for _, g := range chosen {
		var set attrset.Set
		for m := g; m != 0; m &= m - 1 {
			set = set.Add(referenced[bits.TrailingZeros32(m)])
		}
		parts = append(parts, set)
	}
	if !unreferenced.IsEmpty() {
		parts = append(parts, unreferenced)
	}

	costVal := c.Eval(model, tw, parts)
	return algo.Finish(tw, parts, costVal, &c, start)
}

// pairwiseNMI computes the normalized mutual information between every pair
// of referenced attributes, treating each attribute as a binary random
// variable "is referenced by the query" over the weighted query
// distribution. NMI(i,j) = MI(i,j) / min(H(i), H(j)), with NMI = 1 when an
// attribute pair is perfectly coupled and 0 when independent (or when
// either marginal entropy vanishes).
func pairwiseNMI(tw schema.TableWorkload, referenced []int) [][]float64 {
	r := len(referenced)
	var totalW float64
	for _, q := range tw.Queries {
		totalW += q.Weight
	}
	nmi := make([][]float64, r)
	for i := range nmi {
		nmi[i] = make([]float64, r)
	}
	if totalW == 0 {
		return nmi
	}
	marginal := make([]float64, r)
	for i, a := range referenced {
		for _, q := range tw.Queries {
			if q.Attrs.Has(a) {
				marginal[i] += q.Weight
			}
		}
		marginal[i] /= totalW
	}
	entropy := func(p float64) float64 {
		var h float64
		for _, v := range []float64{p, 1 - p} {
			if v > 0 {
				h -= v * math.Log2(v)
			}
		}
		return h
	}
	for i := 0; i < r; i++ {
		for j := i + 1; j < r; j++ {
			var p11 float64
			for _, q := range tw.Queries {
				if q.Attrs.Has(referenced[i]) && q.Attrs.Has(referenced[j]) {
					p11 += q.Weight
				}
			}
			p11 /= totalW
			pi, pj := marginal[i], marginal[j]
			joint := [4]float64{
				p11,               // both
				pi - p11,          // i only
				pj - p11,          // j only
				1 - pi - pj + p11, // neither
			}
			marg := [4]float64{pi * pj, pi * (1 - pj), (1 - pi) * pj, (1 - pi) * (1 - pj)}
			var mi float64
			for k, p := range joint {
				if p > 1e-15 && marg[k] > 1e-15 {
					mi += p * math.Log2(p/marg[k])
				}
			}
			hmin := math.Min(entropy(pi), entropy(pj))
			switch {
			case p11 < pi*pj-1e-15:
				// Negatively associated attributes (co-accessed less often
				// than independence predicts) carry high mutual information
				// but are the worst possible grouping: merging them forces
				// every query referencing either to read both. Interesting-
				// ness measures positive co-access, so score them zero.
			case hmin > 1e-15:
				v := mi / hmin
				if v < 0 {
					v = 0
				}
				if v > 1 {
					v = 1
				}
				nmi[i][j], nmi[j][i] = v, v
			case pi > 1-1e-12 && pj > 1-1e-12:
				// Degenerate but perfectly coupled: both attributes are
				// referenced by every query, so they always co-occur. Their
				// entropies vanish and MI is undefined; the pair is maximally
				// interesting for grouping purposes.
				nmi[i][j], nmi[j][i] = 1, 1
			}
		}
	}
	return nmi
}

// groupInterestingness is the mean pairwise NMI of the group's attributes.
func groupInterestingness(nmi [][]float64, mask uint32, r int) float64 {
	var idx [32]int
	n := 0
	for m := mask; m != 0; m &= m - 1 {
		idx[n] = bits.TrailingZeros32(m)
		n++
	}
	if n < 2 {
		return 0
	}
	var sum float64
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			sum += nmi[idx[a]][idx[b]]
		}
	}
	return sum / float64(n*(n-1)/2)
}
