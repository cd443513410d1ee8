package trojan

import (
	"math/bits"

	"knives/internal/algo"
	"knives/internal/attrset"
	"knives/internal/schema"
)

// The oracle the production kernel must equal bit for bit: the direct
// transcription of the algorithm — re-sum every group's O(k²) NMI pairs, one
// tick per group, an exact-cover DP over all 2^r attribute masks. It was
// Partition's body until the split-half kernel replaced it; it survives here
// only as the reference.

// referenceGroups scores all 2^r - 1 column groups, ticking c once per group,
// and returns the interesting multi-attribute ones in ascending mask order.
func referenceGroups(nmi [][]float64, r int, threshold float64, c *algo.Counter) []group {
	var groups []group
	total := uint32(1)<<uint(r) - 1
	for mask := uint32(1); mask <= total; mask++ {
		k := bits.OnesCount32(mask)
		c.Tick()
		if k < 2 {
			continue
		}
		intg := groupInterestingness(nmi, mask, r)
		if intg < threshold {
			continue
		}
		groups = append(groups, group{mask: mask, value: intg * float64(k)})
	}
	return groups
}

// referenceCover is the full-width exact-cover DP.
func referenceCover(groups []group, r int) (chosen []uint32) {
	byLowBit := make([][]group, r)
	for _, g := range groups {
		lb := bits.TrailingZeros32(g.mask)
		byLowBit[lb] = append(byLowBit[lb], g)
	}
	total := uint32(1)<<uint(r) - 1
	dp := make([]float64, total+1)
	choice := make([]uint32, total+1)
	for mask := uint32(1); mask <= total; mask++ {
		lb := bits.TrailingZeros32(mask)
		single := uint32(1) << uint(lb)
		dp[mask] = dp[mask^single]
		choice[mask] = single
		for _, g := range byLowBit[lb] {
			if g.mask&mask != g.mask {
				continue
			}
			if v := dp[mask^g.mask] + g.value; v > dp[mask] {
				dp[mask] = v
				choice[mask] = g.mask
			}
		}
	}
	for mask := total; mask != 0; mask ^= choice[mask] {
		chosen = append(chosen, choice[mask])
	}
	return chosen
}

// referenceCoverSteps is how many groups referenceCover's inner loop will
// visit: each group is scanned once per state sharing its lowest attribute.
// Tests use it to skip the cover comparison where the oracle is infeasible
// (it is ~4^r/3 when most groups survive).
func referenceCoverSteps(groups []group, r int) float64 {
	var steps float64
	for _, g := range groups {
		steps += float64(uint64(1) << uint(r-1-bits.TrailingZeros32(g.mask)))
	}
	return steps
}

// referenceLayout turns the chosen groups into the layout Partition prices:
// one part per group in emission order, then the unreferenced attributes.
func referenceLayout(tw schema.TableWorkload, chosen []uint32) []attrset.Set {
	referenced := tw.ReferencedAttrs().Attrs()
	var parts []attrset.Set
	for _, g := range chosen {
		var set attrset.Set
		for m := g; m != 0; m &= m - 1 {
			set = set.Add(referenced[bits.TrailingZeros32(m)])
		}
		parts = append(parts, set)
	}
	if unreferenced := tw.Table.AllAttrs().Minus(tw.ReferencedAttrs()); !unreferenced.IsEmpty() {
		parts = append(parts, unreferenced)
	}
	return parts
}
