package statestore

import "sync"

// OnceCache is the one compute-once cache behind every memoized layer — the
// advisor's advice, replay, exec, migrate, and observe-dedup caches and the
// experiment suite's layout, timing, and executed-replay caches: a
// FIFO-bounded map whose values are each computed at most once.
//
// The cache mutex only guards the map; a computation runs under its entry's
// own once, so different keys compute concurrently and identical concurrent
// requests collapse into one computation. An entry evicted while in flight
// still completes for the callers already holding it — it is simply no
// longer findable. The zero value is an empty, unbounded cache; an OnceCache
// must not be copied after first use.
type OnceCache[K comparable, V any] struct {
	mu sync.Mutex
	f  FIFO[K, *onceEntry[V]]
}

type onceEntry[V any] struct {
	once sync.Once
	v    V
	err  error
}

// NewOnceCache returns an empty cache evicting oldest-first past capacity;
// capacity <= 0 disables eviction.
func NewOnceCache[K comparable, V any](capacity int) *OnceCache[K, V] {
	return &OnceCache[K, V]{f: FIFO[K, *onceEntry[V]]{capacity: capacity}}
}

// Do returns the value cached under k, computing it with fn on a miss;
// concurrent calls for one key all answer the single computation's result.
// ran reports whether THIS call executed fn — attribution is by who did the
// work, not by who created the entry, so !ran always means "answered
// without computing". A failed computation must not poison its key forever:
// its entry is dropped (if it is still the key's current one), the callers
// that shared it get the error, and the next call recomputes.
func (c *OnceCache[K, V]) Do(k K, fn func() (V, error)) (v V, ran bool, err error) {
	c.mu.Lock()
	e, ok := c.f.Get(k)
	if !ok {
		e = &onceEntry[V]{}
		c.f.Insert(k, e)
	}
	c.mu.Unlock()
	e.once.Do(func() {
		ran = true
		e.v, e.err = fn()
	})
	if e.err != nil {
		c.mu.Lock()
		if cur, ok := c.f.Get(k); ok && cur == e {
			c.f.Drop(k)
		}
		c.mu.Unlock()
	}
	return e.v, ran, e.err
}

// Seed stores an already-computed value under k unless the key is present:
// it never overrides a resolved entry, never blocks on an in-flight one
// (which is resolving the same question), and leaves both in place.
func (c *OnceCache[K, V]) Seed(k K, v V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.f.Get(k); !ok {
		e := &onceEntry[V]{v: v}
		e.once.Do(func() {}) // resolved from birth
		c.f.Insert(k, e)
	}
}

// DropFunc removes every key the predicate selects, preserving the FIFO
// order of the survivors; in-flight computations of dropped keys still
// complete for their callers.
func (c *OnceCache[K, V]) DropFunc(pred func(K) bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.f.DropFunc(pred)
}

// Len returns the number of live keys, resolved or in flight.
func (c *OnceCache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.f.Len()
}
