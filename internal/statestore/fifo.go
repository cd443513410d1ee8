package statestore

// FIFO is a bounded map that evicts its oldest insertions first. It is the
// one implementation of the order-slice invariant the advisor's caches each
// used to carry a copy of: order lists exactly the map's live keys, oldest
// first, each once. Re-inserting a live key overwrites the value in place
// and keeps the original order slot — without that, a duplicated key in
// order would make eviction delete a FRESH entry when it pops the stale
// occurrence.
//
// FIFO does no locking; callers serialize access (the advisor's tracker
// registry under its service mutex, OnceCache under its own). The zero
// value is an empty map that never evicts.
type FIFO[K comparable, V any] struct {
	m     map[K]V
	order []K
	// capacity <= 0 disables eviction.
	capacity int
}

// NewFIFO returns an empty bounded map. capacity <= 0 disables eviction.
func NewFIFO[K comparable, V any](capacity int) *FIFO[K, V] {
	return &FIFO[K, V]{m: make(map[K]V), capacity: capacity}
}

// Get looks a key up.
func (f *FIFO[K, V]) Get(k K) (V, bool) {
	v, ok := f.m[k]
	return v, ok
}

// Len returns the number of live keys.
func (f *FIFO[K, V]) Len() int { return len(f.m) }

// Insert stores a value and evicts the oldest keys past capacity — never
// the just-inserted one. It returns the evicted keys, oldest first, so the
// caller can journal or release what went away.
func (f *FIFO[K, V]) Insert(k K, v V) []K {
	if _, live := f.m[k]; live {
		f.m[k] = v
		return nil
	}
	if f.m == nil {
		f.m = make(map[K]V)
	}
	f.m[k] = v
	f.order = append(f.order, k)
	if f.capacity <= 0 {
		return nil
	}
	var evicted []K
	for len(f.m) > f.capacity && len(f.order) > 1 {
		oldest := f.order[0]
		if oldest == k {
			break
		}
		f.order = f.order[1:]
		delete(f.m, oldest)
		evicted = append(evicted, oldest)
	}
	return evicted
}

// Evictions returns the keys Insert(k, ...) WOULD evict, oldest first,
// without mutating anything. A journaling caller appends the eviction
// events before the Insert applies them, keeping journal order equal to
// apply order.
func (f *FIFO[K, V]) Evictions(k K) []K {
	if f.capacity <= 0 {
		return nil
	}
	if _, live := f.m[k]; live {
		return nil
	}
	var out []K
	n := len(f.m) + 1
	for i := 0; n > f.capacity && i < len(f.order); i++ {
		out = append(out, f.order[i])
		n--
	}
	return out
}

// Drop removes a key and its order slot; absent keys are a no-op.
func (f *FIFO[K, V]) Drop(k K) {
	if _, live := f.m[k]; !live {
		return
	}
	delete(f.m, k)
	for i, o := range f.order {
		if o == k {
			f.order = append(f.order[:i], f.order[i+1:]...)
			return
		}
	}
}

// DropFunc removes every key the predicate selects, preserving the order of
// the survivors.
func (f *FIFO[K, V]) DropFunc(pred func(K) bool) {
	kept := f.order[:0]
	for _, k := range f.order {
		if pred(k) {
			delete(f.m, k)
			continue
		}
		kept = append(kept, k)
	}
	f.order = kept
}

// Keys returns the live keys, oldest insertion first.
func (f *FIFO[K, V]) Keys() []K {
	return append([]K(nil), f.order...)
}
