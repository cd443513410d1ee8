// Package attrset implements compact sets of attribute (column) indexes.
//
// Vertical partitioning algorithms spend almost all of their time asking set
// questions — "which attributes does this query touch?", "do these two column
// groups overlap?" — so the set representation is a single uint64 bitmask.
// This bounds tables to 64 attributes, far above the 17 attributes of the
// widest table in the TPC-H and SSB benchmarks used by the paper.
package attrset

import (
	"fmt"
	"math/bits"
	"strconv"
)

// MaxAttrs is the largest number of attributes a Set can hold.
const MaxAttrs = 64

// Set is a set of attribute indexes in [0, MaxAttrs).
// The zero value is the empty set and is ready to use.
type Set uint64

// Of returns a Set containing exactly the given attribute indexes.
func Of(attrs ...int) Set {
	var s Set
	for _, a := range attrs {
		s = s.Add(a)
	}
	return s
}

// All returns the set {0, 1, ..., n-1}.
func All(n int) Set {
	if n < 0 || n > MaxAttrs {
		panic(fmt.Sprintf("attrset: All(%d) out of range", n))
	}
	if n == MaxAttrs {
		return ^Set(0)
	}
	return Set(1)<<uint(n) - 1
}

// Single returns the set {a}.
func Single(a int) Set {
	checkIndex(a)
	return Set(1) << uint(a)
}

func checkIndex(a int) {
	if a < 0 || a >= MaxAttrs {
		panic(fmt.Sprintf("attrset: index %d out of range", a))
	}
}

// Add returns s with attribute a added.
func (s Set) Add(a int) Set {
	checkIndex(a)
	return s | Set(1)<<uint(a)
}

// Remove returns s with attribute a removed.
func (s Set) Remove(a int) Set {
	checkIndex(a)
	return s &^ (Set(1) << uint(a))
}

// Has reports whether attribute a is in s.
func (s Set) Has(a int) bool {
	if a < 0 || a >= MaxAttrs {
		return false
	}
	return s&(Set(1)<<uint(a)) != 0
}

// Union returns the union of s and t.
func (s Set) Union(t Set) Set { return s | t }

// Intersect returns the intersection of s and t.
func (s Set) Intersect(t Set) Set { return s & t }

// Minus returns the attributes of s that are not in t.
func (s Set) Minus(t Set) Set { return s &^ t }

// Overlaps reports whether s and t share any attribute.
func (s Set) Overlaps(t Set) bool { return s&t != 0 }

// ContainsAll reports whether every attribute of t is in s.
func (s Set) ContainsAll(t Set) bool { return s&t == t }

// IsEmpty reports whether s has no attributes.
func (s Set) IsEmpty() bool { return s == 0 }

// Len returns the number of attributes in s.
func (s Set) Len() int { return bits.OnesCount64(uint64(s)) }

// Min returns the smallest attribute index in s.
// It panics if s is empty.
func (s Set) Min() int {
	if s == 0 {
		panic("attrset: Min of empty set")
	}
	return bits.TrailingZeros64(uint64(s))
}

// Attrs returns the attribute indexes of s in increasing order.
func (s Set) Attrs() []int {
	out := make([]int, 0, s.Len())
	for t := s; t != 0; t &= t - 1 {
		out = append(out, bits.TrailingZeros64(uint64(t)))
	}
	return out
}

// ForEach calls fn for every attribute of s in increasing order.
func (s Set) ForEach(fn func(a int)) {
	for t := s; t != 0; t &= t - 1 {
		fn(bits.TrailingZeros64(uint64(t)))
	}
}

// Subsets calls fn for every non-empty subset of s, in an arbitrary but
// deterministic order. If fn returns false, iteration stops early.
func (s Set) Subsets(fn func(sub Set) bool) {
	// Standard sub-mask enumeration: sub = (sub-1) & s walks all submasks.
	for sub := s; sub != 0; sub = (sub - 1) & Set(s) {
		if !fn(sub) {
			return
		}
	}
}

// String renders s like "{0,3,5}".
func (s Set) String() string {
	// Braces, commas and up to two digits per index: 3·MaxAttrs bytes hold
	// the full set.
	var buf [3 * MaxAttrs]byte
	b := append(buf[:0], '{')
	for t := s; t != 0; t &= t - 1 {
		if t != s {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(bits.TrailingZeros64(uint64(t))), 10)
	}
	return string(append(b, '}'))
}
