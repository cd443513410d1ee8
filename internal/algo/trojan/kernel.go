package trojan

import (
	"math"
	"math/bits"
)

// group is one surviving multi-attribute column group: a bitmask over the
// referenced attributes and its cover value, interestingness × size.
type group struct {
	mask  uint32
	value float64
}

// filterGuard is how far below the threshold a group's approximate mean must
// sit before the filter may drop it unverified. The split-half sum adds the
// same ≤ 190 terms of [0, 1] as groupInterestingness in another order, so
// the two differ by < 1e-11 (see DESIGN.md, "Trojan kernel"); the guard is a
// hundred times that, and everything inside it is re-scored exactly.
const filterGuard = 1e-9

// interestingGroups returns the multi-attribute groups over r attributes
// whose interestingness reaches the threshold, in ascending mask order.
//
// Scoring is O(1) per mask: the attributes split into a low and a high half,
// the pair sums inside each half are tabulated once, and the pairs across
// are tabulated per high mask. High masks run outside and low masks inside,
// so survivors arrive in ascending mask order. That sum only filters: any
// group it cannot rule out by filterGuard is re-scored by
// groupInterestingness, so the threshold decision and the value entering the
// cover DP are the reference floats.
func interestingGroups(nmi [][]float64, r int, threshold float64) []group {
	l := r / 2
	h := r - l
	low := halfPairSums(nmi, 0, l)
	high := halfPairSums(nmi, l, h)

	// cut[k] is the approximate pair sum below which a k-attribute group is
	// certainly under the threshold. Singletons and the empty mask never
	// pass; a NaN threshold compares false and sends every group to the
	// exact check, which is what the reference decides too. (Fixed-size and
	// masked indexes below keep bounds checks out of the 2^r loop.)
	var cut [64]float64
	for k := range cut {
		cut[k] = math.Inf(1)
		if k >= 2 {
			cut[k] = (threshold - filterGuard) * float64(k*(k-1)/2)
		}
	}

	// A low mask's cross sum against hm is linear in its bits, so it is
	// tabulated per hm over the low half's own two halves (2·2^(l/2) adds)
	// and read back as crossA[a] + crossB[b] for lm = b<<la | a.
	la := l / 2
	na, nb := 1<<uint(la), 1<<uint(l-la)
	crossA, crossB := make([]float64, na), make([]float64, nb)
	size := make([]uint8, na*nb) // popcounts of the low masks
	for lm := 1; lm < len(size); lm++ {
		size[lm] = size[lm&(lm-1)] + 1
	}
	var toHigh [32]float64 // one low attribute against the whole high mask
	var groups []group
	var passed []int
	for hm := uint32(0); hm < 1<<uint(h); hm++ {
		for i := 0; i < l; i++ {
			var s float64
			for m := hm; m != 0; m &= m - 1 {
				s += nmi[i][l+bits.TrailingZeros32(m)]
			}
			toHigh[i] = s
		}
		for a := 1; a < na; a++ {
			crossA[a] = crossA[a&(a-1)] + toHigh[bits.TrailingZeros32(uint32(a))]
		}
		for b := 1; b < nb; b++ {
			crossB[b] = crossB[b&(b-1)] + toHigh[la+bits.TrailingZeros32(uint32(b))]
		}
		kh := bits.OnesCount32(hm)
		for b, cb := range crossB {
			first := b << uint(la)
			passed = unfiltered(passed[:0], low[first:first+na], size[first:first+na], crossA, high[hm]+cb, kh, &cut)
			for _, a := range passed {
				mask := hm<<uint(l) | uint32(first+a)
				if intg := groupInterestingness(nmi, mask, r); !(intg < threshold) {
					groups = append(groups, group{mask: mask, value: intg * float64(bits.OnesCount32(mask))})
				}
			}
		}
	}
	return groups
}

// unfiltered appends to dst, ascending, the positions a whose approximate
// pair sum low[a] + base + cross[a] is not below the cut for the group's
// size, kh + size[a]. It is the whole of the 2^r loop: a function of its own,
// and kept out of line, so that its handful of values stay in registers
// (inlined into its caller the loop counter spills to the stack and the loop
// runs at half speed).
//
//go:noinline
func unfiltered(dst []int, low []float64, size []uint8, cross []float64, base float64, kh int, cut *[64]float64) []int {
	size, cross = size[:len(low)], cross[:len(low)]
	for a := range low {
		if low[a]+base+cross[a] < cut[(kh+int(size[a]))&63] {
			continue
		}
		dst = append(dst, a)
	}
	return dst
}

// halfPairSums tabulates, for every subset of the n attributes starting at
// first, the sum of its pairwise NMIs.
func halfPairSums(nmi [][]float64, first, n int) []float64 {
	sums := make([]float64, 1<<uint(n))
	for mask := uint32(1); mask < 1<<uint(n); mask++ {
		rest := mask & (mask - 1)
		row := nmi[first+bits.TrailingZeros32(mask)]
		s := sums[rest]
		for m := rest; m != 0; m &= m - 1 {
			s += row[first+bits.TrailingZeros32(m)]
		}
		sums[mask] = s
	}
	return sums
}

// cover solves the exact-cover DP: the disjoint selection of groups (and
// value-0 singletons) covering all r attributes with maximal total value.
// It returns the chosen groups from the lowest attribute up, and the number
// of candidate groups the DP examined.
//
// The DP runs over the union of the groups only. An attribute outside it can
// be covered by nothing but its singleton, so the full-width DP satisfies
// dp[m] == dp[m ∩ union] with identical float operations in identical order
// (DESIGN.md has the induction); states are therefore the 2^u subsets of
// the union, renumbered densely, and the other attributes are emitted as
// singletons on the way out.
func cover(groups []group, r int) (chosen []uint32, steps int64) {
	var union uint32
	for _, g := range groups {
		union |= g.mask
	}
	var rank, attrOf [32]uint // attribute -> dense position, and back
	u := uint(0)
	for m := union; m != 0; m &= m - 1 {
		a := uint(bits.TrailingZeros32(m))
		rank[a], attrOf[u] = u, a
		u++
	}

	// value[s] is the group value of dense mask s, -1 where s is no
	// surviving group (values are means of NMIs in [0, 1] times a size).
	value := make([]float64, 1<<u)
	for s := range value {
		value[s] = -1
	}
	byLowBit := make([][]group, u)
	for _, g := range groups {
		var s uint32
		for m := g.mask; m != 0; m &= m - 1 {
			s |= 1 << rank[bits.TrailingZeros32(m)]
		}
		value[s] = g.value
		lb := bits.TrailingZeros32(s)
		byLowBit[lb] = append(byLowBit[lb], group{mask: s, value: g.value})
	}

	// dp[s] = best total value of a disjoint cover of s; choice[s] = the
	// group covering s's lowest attribute. Candidates are tried in ascending
	// mask order and replace the best only when strictly better.
	dp := make([]float64, 1<<u)
	choice := make([]uint32, 1<<u)
	for s := uint32(1); s < 1<<u; s++ {
		lb := bits.TrailingZeros32(s)
		single := uint32(1) << uint(lb)
		rest := s ^ single
		best, pick := dp[rest], single
		list := byLowBit[lb]
		if subsets := 1 << uint(bits.OnesCount32(rest)); len(list) < subsets {
			for _, g := range list {
				if g.mask&s != g.mask {
					continue
				}
				if v := dp[s^g.mask] + g.value; v > best {
					best, pick = v, g.mask
				}
			}
			steps += int64(len(list))
		} else {
			// Dense survivors: the groups that fit s are fewer than the
			// list is long, so walk them directly — the non-empty subsets
			// of rest, ascending, each joined with the lowest attribute.
			// Same candidates in the same order as the list scan.
			for sub := -rest & rest; sub != 0; sub = (sub - rest) & rest {
				g := sub | single
				if val := value[g]; val >= 0 {
					if v := dp[s^g] + val; v > best {
						best, pick = v, g
					}
				}
			}
			steps += int64(subsets - 1)
		}
		dp[s], choice[s] = best, pick
	}

	s := uint32(1)<<u - 1
	for mask := uint32(1)<<uint(r) - 1; mask != 0; {
		g := mask & -mask // an attribute outside the union: its singleton
		if g&union != 0 {
			dense := choice[s]
			s ^= dense
			g = 0
			for m := dense; m != 0; m &= m - 1 {
				g |= 1 << attrOf[bits.TrailingZeros32(m)]
			}
		}
		chosen = append(chosen, g)
		mask ^= g
	}
	return chosen, steps
}
