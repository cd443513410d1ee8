package affinity

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"knives/internal/attrset"
)

// The oracle the cached Matrix must equal bit for bit: the bond energy
// algorithm with every bond recomputed from its two rows each time it is
// asked and a fresh ordering allocated per insertion. It was Matrix's body
// until the bond cache replaced it; it survives here only as the reference.
type refMatrix struct {
	n int
	a []float64
}

func (m *refMatrix) addQuery(attrs attrset.Set, weight float64) {
	if weight == 0 {
		weight = 1
	}
	list := attrs.Attrs()
	for _, i := range list {
		for _, j := range list {
			m.a[i*m.n+j] += weight
		}
	}
}

func (m *refMatrix) bond(i, j int) float64 {
	if i < 0 || j < 0 {
		return 0
	}
	var s float64
	for k := 0; k < m.n; k++ {
		s += m.a[i*m.n+k] * m.a[j*m.n+k]
	}
	return s
}

func (m *refMatrix) contribution(l, x, r int) float64 {
	return 2*m.bond(l, x) + 2*m.bond(x, r) - 2*m.bond(l, r)
}

func (m *refMatrix) order() []int {
	if m.n == 0 {
		return nil
	}
	order := []int{0}
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
		order = refInsertAt(order, bestPos, bestAttr)
		placed = placed.Add(bestAttr)
	}
	return order
}

func (m *refMatrix) bestPosition(order []int, x int) (int, float64) {
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

func refInsertAt(order []int, pos, x int) []int {
	out := make([]int, 0, len(order)+1)
	out = append(out, order[:pos]...)
	out = append(out, x)
	out = append(out, order[pos:]...)
	return out
}

func (m *refMatrix) reinsert(order []int, attrs attrset.Set) []int {
	out := make([]int, 0, len(order))
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
		out = refInsertAt(out, pos, a)
	})
	return out
}

// FuzzReinsertVsReference interleaves AddQuery, Reinsert and Order on the
// cached matrix and the oracle. After every step the orderings must be equal
// and every bond(i, j) the same bit pattern — which also leaves the cache
// full, so an AddQuery that forgets to invalidate an entry is caught by the
// very next step. Weights are fractional: integer weights make every
// summation order exact and would hide a reordering of the bond sum.
func FuzzReinsertVsReference(f *testing.F) {
	f.Add(uint8(3), []byte{0, 3, 0, 0, 5, 1, 6, 0, 0, 9})
	f.Add(uint8(1), []byte{0, 1, 0, 0, 1, 3, 0, 0, 0, 0})
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 5*(40+rng.Intn(80)))
		rng.Read(data)
		f.Add(uint8(1+rng.Intn(24)), data)
	}
	f.Fuzz(func(t *testing.T, width uint8, data []byte) {
		n := 1 + int(width)%24
		m := NewMatrix(n)
		ref := &refMatrix{n: n, a: make([]float64, n*n)}
		order := make([]int, n)
		for i := range order {
			order[i] = i
		}
		refOrder := append([]int(nil), order...)

		// Each step is five bytes: an op, a 24-bit attribute set, a weight.
		for step := 0; len(data) >= 5; step, data = step+1, data[5:] {
			attrs := attrset.Set(uint64(data[1])|uint64(data[2])<<8|uint64(data[3])<<16) & attrset.Set(uint64(1)<<uint(n)-1)
			if attrs.IsEmpty() {
				attrs = attrset.Single(int(data[1]) % n)
			}
			weight := float64(1+int(data[4])) / 3
			switch data[0] % 4 {
			case 0, 1: // the O2P step
				m.AddQuery(attrs, weight)
				ref.addQuery(attrs, weight)
				order = m.Reinsert(order, attrs)
				refOrder = ref.reinsert(refOrder, attrs)
			case 2: // a matrix change with no re-clustering
				m.AddQuery(attrs, weight)
				ref.addQuery(attrs, weight)
			case 3: // a batch clustering over whatever the cache holds
				order = m.Order()
				refOrder = ref.order()
			}
			if !slices.Equal(order, refOrder) {
				t.Fatalf("step %d (op %d, attrs %v): order %v, reference %v", step, data[0]%4, attrs, order, refOrder)
			}
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					got, want := m.bond(i, j), ref.bond(i, j)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("step %d (op %d, attrs %v): bond(%d,%d) = %x, reference %x",
							step, data[0]%4, attrs, i, j, math.Float64bits(got), math.Float64bits(want))
					}
				}
			}
		}
	})
}

// TestBondCacheComputesEachPairOnce pins what the cache is for: a clustering
// over an unchanged matrix computes each unordered pair at most once, and an
// AddQuery makes only the bonds of the rows it touched computable again.
func TestBondCacheComputesEachPairOnce(t *testing.T) {
	const n = 12
	m := NewMatrix(n)
	rng := rand.New(rand.NewSource(7))
	for q := 0; q < 40; q++ {
		m.AddQuery(attrset.Set(rng.Int63())&attrset.Set(1<<n-1)|attrset.Single(q%n), 1+rng.Float64())
	}
	m.Order()
	pairs := n * (n + 1) / 2
	if got := m.BondsComputed(); got > pairs {
		t.Fatalf("Order computed %d bonds, want at most one per unordered pair (%d)", got, pairs)
	}
	before := m.BondsComputed()
	m.Order()
	if got := m.BondsComputed(); got != before {
		t.Fatalf("a second Order on an unchanged matrix computed %d more bonds, want 0", got-before)
	}
	touched := attrset.Of(2, 5, 9)
	m.AddQuery(touched, 0.5)
	m.Order()
	// Stale: every pair with a touched attribute on at least one side.
	stale := pairs - (n-3)*(n-2)/2
	if got := m.BondsComputed() - before; got > stale {
		t.Fatalf("Order after a 3-attribute AddQuery computed %d bonds, want at most %d", got, stale)
	}
}
