// Package affinity implements the attribute affinity matrix and the bond
// energy algorithm (McCormick, Schweitzer, White 1972) used by Navathe's
// vertical partitioning algorithm and, incrementally, by O2P.
package affinity

import (
	"fmt"

	"knives/internal/attrset"
	"knives/internal/schema"
)

// Matrix is a symmetric attribute affinity matrix: cell (i, j) holds the
// summed weight of queries that reference attributes i and j together
// (the paper's "number of times attribute i co-occurs with attribute j").
// The diagonal holds each attribute's total access frequency.
//
// Bond energies are cached: a bond is a function of two rows, so it is
// computed at most once between changes to either row. A Matrix is not safe
// for concurrent use — Order and Reinsert fill the cache.
type Matrix struct {
	n int
	a []float64 // row-major n*n

	// bonds[i*n+j] holds bond(i, j) while known[i*n+j] is set. bond stores
	// both (i, j) and (j, i): the products commute and the k-order of the
	// sum is the same, so the two are one bit pattern. AddQuery clears the
	// row and the column of every attribute whose affinities it changed.
	bonds    []float64
	known    []bool
	computed int // bonds computed by the loop rather than served from the cache
}

// NewMatrix returns an all-zero affinity matrix over n attributes.
func NewMatrix(n int) *Matrix {
	if n < 0 || n > attrset.MaxAttrs {
		panic(fmt.Sprintf("affinity: NewMatrix(%d) out of range", n))
	}
	return &Matrix{n: n, a: make([]float64, n*n), bonds: make([]float64, n*n), known: make([]bool, n*n)}
}

// Build constructs the affinity matrix of a per-table workload.
func Build(tw schema.TableWorkload) *Matrix {
	m := NewMatrix(tw.Table.NumAttrs())
	for _, q := range tw.Queries {
		m.AddQuery(q.Attrs, q.Weight)
	}
	return m
}

// N returns the number of attributes.
func (m *Matrix) N() int { return m.n }

// At returns the affinity of attributes i and j.
func (m *Matrix) At(i, j int) float64 { return m.a[i*m.n+j] }

// BondsComputed returns how many bond energies the matrix has computed from
// its rows so far (cache misses); benchmarks report it per query.
func (m *Matrix) BondsComputed() int { return m.computed }

// AddQuery folds one query with the given weight into the matrix. This is
// the online update O2P performs for every incoming query.
func (m *Matrix) AddQuery(attrs attrset.Set, weight float64) {
	if weight == 0 {
		weight = 1
	}
	list := attrs.Attrs()
	for _, i := range list {
		for _, j := range list {
			m.a[i*m.n+j] += weight
		}
		// Row i changed, so every bond with i on either side is stale.
		clear(m.known[i*m.n : (i+1)*m.n])
		for k := 0; k < m.n; k++ {
			m.known[k*m.n+i] = false
		}
	}
}

// bond is the bond energy between two attribute columns: the inner product
// of their affinity vectors. Index -1 denotes the virtual empty column at
// either boundary, whose bond with anything is zero.
func (m *Matrix) bond(i, j int) float64 {
	if i < 0 || j < 0 {
		return 0
	}
	if m.known[i*m.n+j] {
		return m.bonds[i*m.n+j]
	}
	ri, rj := m.a[i*m.n:(i+1)*m.n], m.a[j*m.n:(j+1)*m.n]
	rj = rj[:len(ri)] // lets the compiler drop the bounds check in the loop
	var s float64
	for k, v := range ri {
		s += v * rj[k]
	}
	m.computed++
	m.bonds[i*m.n+j], m.known[i*m.n+j] = s, true
	m.bonds[j*m.n+i], m.known[j*m.n+i] = s, true
	return s
}

// contribution is the net bond energy gained by placing attribute x between
// neighbors l and r (either may be -1 at a boundary):
// cont(l, x, r) = 2·bond(l,x) + 2·bond(x,r) − 2·bond(l,r).
func (m *Matrix) contribution(l, x, r int) float64 {
	return 2*m.bond(l, x) + 2*m.bond(x, r) - 2*m.bond(l, r)
}

// Order clusters the matrix with the bond energy algorithm and returns the
// resulting attribute ordering. Following McCormick's original procedure,
// each step selects — among the not-yet-placed attributes — the one whose
// best insertion position yields the largest contribution, and places it
// there. Ties prefer the lower attribute index and the leftmost position,
// which makes the ordering deterministic.
func (m *Matrix) Order() []int {
	if m.n == 0 {
		return nil
	}
	order := make([]int, 1, m.n)
	placed := attrset.Single(0)
	for len(order) < m.n {
		bestAttr, bestPos, bestCont := -1, 0, 0.0
		for x := 0; x < m.n; x++ {
			if placed.Has(x) {
				continue
			}
			pos, cont := m.bestPosition(order, x)
			if bestAttr < 0 || cont > bestCont {
				bestAttr, bestPos, bestCont = x, pos, cont
			}
		}
		order = insertAt(order, bestPos, bestAttr)
		placed = placed.Add(bestAttr)
	}
	return order
}

// bestPosition returns the insertion position for x that maximizes its
// contribution, and that contribution.
func (m *Matrix) bestPosition(order []int, x int) (int, float64) {
	bestPos, bestCont := 0, m.contribution(-1, x, order[0])
	for pos := 1; pos <= len(order); pos++ {
		l := order[pos-1]
		r := -1
		if pos < len(order) {
			r = order[pos]
		}
		if c := m.contribution(l, x, r); c > bestCont {
			bestCont, bestPos = c, pos
		}
	}
	return bestPos, bestCont
}

// insertAt inserts x at pos, shifting the tail up within order's backing
// array when it has room.
func insertAt(order []int, pos, x int) []int {
	order = append(order, 0)
	copy(order[pos+1:], order[pos:])
	order[pos] = x
	return order
}

// Reinsert removes every attribute of attrs from the ordering and re-inserts
// each at its now-best position. This is the incremental clustering step
// O2P performs after folding a query into the matrix: only the attributes
// whose affinities changed are reconsidered. The ordering is rearranged in
// place: the result shares order's backing array.
func (m *Matrix) Reinsert(order []int, attrs attrset.Set) []int {
	out := order[:0]
	for _, a := range order {
		if !attrs.Has(a) {
			out = append(out, a)
		}
	}
	attrs.ForEach(func(a int) {
		if len(out) == 0 {
			out = append(out, a)
			return
		}
		pos, _ := m.bestPosition(out, a)
		out = insertAt(out, pos, a)
	})
	return out
}
