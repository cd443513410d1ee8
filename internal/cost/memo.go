package cost

import "knives/internal/schema"

// PartitionCostMemo caches PartitionCoster results for one table by the pair
// (rowSize, totalRowSize). Exhaustive searches hit the same pairs massively
// — group widths are subset sums of a handful of atom widths — so almost
// every lookup is a cache hit after the first few thousand candidates.
//
// The memo returns the cached float unchanged, so memoized searches stay
// bit-identical to unmemoized ones. It is NOT safe for concurrent use: give
// each search worker its own memo.
//
// Internally this is an open-addressed linear-probe table rather than a Go
// map: the lookup sits on the innermost loop of the BruteForce walk, where
// map overhead dominated the whole search (~55% of samples) when profiled.
// A slot holds its key beside its value, so a hit touches one cache line.
type PartitionCostMemo struct {
	pc    PartitionCoster
	t     *schema.Table
	slots []memoSlot
	n     int    // occupied slots
	mask  uint64 // len(slots)-1, len is a power of two
}

// memoSlot is one entry: key packs rowSize<<32|totalRowSize, 0 marks an
// empty slot.
type memoSlot struct {
	key uint64
	val float64
}

const memoInitialSize = 4096 // power of two, sized for TPC-H-scale searches

// NewPartitionCostMemo returns an empty memo over one table. Cacheable pairs
// need 1 <= rowSize < 2^32 and 0 <= totalRowSize < 2^32 — far beyond any
// real table's row width; anything else bypasses the cache and is computed
// directly.
func NewPartitionCostMemo(pc PartitionCoster, t *schema.Table) *PartitionCostMemo {
	m := new(PartitionCostMemo)
	m.Reset(pc, t)
	return m
}

// Reset empties the memo and rebinds it to another model and table, keeping
// its slots, so a caller that searches one table after another reuses one
// memo instead of allocating a table per search. Every cached price depends
// on the table's row count and the model's device, so a memo must be reset
// before it prices a different table; the zero value is usable after Reset.
func (m *PartitionCostMemo) Reset(pc PartitionCoster, t *schema.Table) {
	switch {
	case m.slots == nil:
		m.slots = make([]memoSlot, memoInitialSize)
		m.mask = memoInitialSize - 1
	case m.n > 0:
		clear(m.slots)
	}
	m.pc, m.t, m.n = pc, t, 0
}

// Cost returns PartitionCost(t, rowSize, totalRowSize), cached.
func (m *PartitionCostMemo) Cost(rowSize, totalRowSize int64) float64 {
	if uint64(rowSize)-1 >= 1<<32-1 || uint64(totalRowSize) >= 1<<32 {
		// rowSize 0 packs to an all-zero key, the empty-slot sentinel, so it
		// bypasses the cache along with oversized and negative inputs.
		return m.pc.PartitionCost(m.t, rowSize, totalRowSize)
	}
	key := uint64(rowSize)<<32 | uint64(totalRowSize)
	i := m.slot(key)
	for {
		switch s := &m.slots[i]; s.key {
		case key:
			return s.val
		case 0:
			v := m.pc.PartitionCost(m.t, rowSize, totalRowSize)
			*s = memoSlot{key, v}
			m.n++
			if 4*m.n > 3*len(m.slots) {
				m.grow()
			}
			return v
		}
		i = (i + 1) & m.mask
	}
}

// slot hashes a key to its home slot (Fibonacci hashing on the high bits).
func (m *PartitionCostMemo) slot(key uint64) uint64 {
	return (key * 0x9e3779b97f4a7c15) >> 32 & m.mask
}

func (m *PartitionCostMemo) grow() {
	old := m.slots
	m.slots = make([]memoSlot, 2*len(old))
	m.mask = uint64(len(m.slots) - 1)
	for _, s := range old {
		if s.key == 0 {
			continue
		}
		j := m.slot(s.key)
		for m.slots[j].key != 0 {
			j = (j + 1) & m.mask
		}
		m.slots[j] = s
	}
}

// Len returns the number of cached entries, for tests and diagnostics.
func (m *PartitionCostMemo) Len() int { return m.n }
