package advisor

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"knives/internal/algo"
	"knives/internal/partition"
	"knives/internal/replay"
	"knives/internal/schema"
	"knives/internal/storage"
	"knives/internal/telemetry"
)

// residentStoreBudget bounds the page bytes the service keeps materialized
// between requests. Retained pages cost the Go heap about twice their
// size (the collector's headroom grows with the live set), so the constant
// is sized against the daemon's resident set, not against the tables: 16 MiB
// holds the 20k-row lineitem sample five times over.
const residentStoreBudget = 16 << 20

// storeKey names one resident store by exactly what changes its bytes or
// its accounting: the SAMPLED table (name, materialized rows, columns), the
// canonical layout, the resolved device, and the generator seed. Weights,
// query order, selections, and worker counts change none of them, so every
// execution over the same table and advice can share one store.
type storeKey struct {
	table  string      // the table's name again, for drops by table
	schema Fingerprint // the sampled table, fingerprinted without queries
	layout string      // canonical parts
	model  string      // cost.Device.Key() of the resolved device
	seed   int64
}

// layoutKey renders a layout's canonical parts for storeKey.
func layoutKey(l partition.Partitioning) string { return fmt.Sprint(l.Canonical().Parts) }

// residentStore is one registry entry: a loaded engine nobody mutates,
// shared by every holder of a lease. engine and err are written once, before
// ready closes; the rest is guarded by the registry's lock.
type residentStore struct {
	key    storeKey
	ready  chan struct{}
	engine *storage.Engine
	err    error
	loaded bool   // the load succeeded: bytes is counted, engine needs a Close
	keep   bool   // some lease taken before the load finished wants it resident
	bytes  int64  // engine.Bytes()
	leases int    // in-flight readers, the loader included
	used   uint64 // registry tick of the last acquire
}

// storeRegistry keeps loaded engines resident across requests: compute-once
// per key (concurrent first requests wait for one load), lease-counted (a
// store evicted or dropped while readers hold it is closed by the last
// release, never under a reader), and bounded by a byte budget with
// least-recently-used eviction. A store larger than the whole budget is
// handed to the requests already waiting for it and never retained; so is
// one no lease asked to keep.
type storeRegistry struct {
	budget int64
	// materialize builds and loads one store; replay.Materialize, except in
	// tests that need to watch the backends.
	materialize func(schema.TableWorkload, partition.Partitioning, replay.Config) (*storage.Engine, error)

	mu     sync.Mutex
	stores map[storeKey]*residentStore // loading and resident entries
	bytes  int64                       // page bytes of the loaded entries in stores
	tick   uint64

	hits             atomic.Int64 // leases answered without materializing
	materializations atomic.Int64 // loads run, failed ones included
}

func newStoreRegistry(budget int64) *storeRegistry {
	return &storeRegistry{budget: budget, materialize: replay.Materialize, stores: make(map[storeKey]*residentStore)}
}

// acquire leases the store under key, running load if no request has built
// it yet. Every successful acquire is paired with one release. keep says
// whether a store this call loads — or joins while it loads — stays resident
// afterwards; a resident store is leased either way. A failed load is
// answered to everyone who waited on it and forgotten, so the next request
// retries.
func (r *storeRegistry) acquire(key storeKey, keep bool, load func() (*storage.Engine, error)) (*residentStore, error) {
	r.mu.Lock()
	r.tick++
	if st, ok := r.stores[key]; ok {
		st.leases++
		st.used = r.tick
		st.keep = st.keep || keep
		r.mu.Unlock()
		<-st.ready
		if st.err != nil {
			r.release(st)
			return nil, st.err
		}
		r.hits.Add(1)
		return st, nil
	}
	st := &residentStore{key: key, ready: make(chan struct{}), leases: 1, used: r.tick, keep: keep}
	r.stores[key] = st
	r.mu.Unlock()

	r.materializations.Add(1)
	st.engine, st.err = load()
	close(st.ready)

	r.mu.Lock()
	var idle []*residentStore
	switch {
	case st.err != nil:
		if r.stores[key] == st {
			delete(r.stores, key)
		}
	case r.stores[key] != st:
		// Dropped while loading: the store serves the leases it has and goes.
		st.loaded = true
	default:
		st.loaded, st.bytes = true, st.engine.Bytes()
		r.bytes += st.bytes
		if !st.keep || st.bytes > r.budget {
			r.removeLocked(st)
		} else {
			idle = r.evictLocked(st)
		}
	}
	r.mu.Unlock()
	closeStores(idle)
	if st.err != nil {
		r.release(st)
		return nil, st.err
	}
	return st, nil
}

// evictLocked removes least-recently-used loaded stores until the budget
// holds, sparing keep (which fits the budget on its own). It returns the
// evicted stores no reader holds; the others close on their last release.
func (r *storeRegistry) evictLocked(keep *residentStore) []*residentStore {
	var idle []*residentStore
	for r.bytes > r.budget {
		var lru *residentStore
		for _, st := range r.stores {
			if st != keep && st.loaded && (lru == nil || st.used < lru.used) {
				lru = st
			}
		}
		if r.removeLocked(lru) {
			idle = append(idle, lru)
		}
	}
	return idle
}

// removeLocked takes st out of the registry and reports whether the caller
// must close it (loaded, and no reader left to do it). A store still loading
// has no bytes counted yet; its loader finds it gone and never counts them.
func (r *storeRegistry) removeLocked(st *residentStore) bool {
	delete(r.stores, st.key)
	r.bytes -= st.bytes
	return st.loaded && st.leases == 0
}

// release returns one lease. The last reader of a store the registry no
// longer holds closes it.
func (r *storeRegistry) release(st *residentStore) {
	r.mu.Lock()
	st.leases--
	last := st.leases == 0 && st.loaded && r.stores[st.key] != st
	r.mu.Unlock()
	if last {
		st.engine.Close()
	}
}

// drop removes every store whose key matches, freeing its bytes now instead
// of waiting for the budget to push it out.
func (r *storeRegistry) drop(match func(storeKey) bool) {
	r.mu.Lock()
	var idle []*residentStore
	for k, st := range r.stores {
		if match(k) && r.removeLocked(st) {
			idle = append(idle, st)
		}
	}
	r.mu.Unlock()
	closeStores(idle)
}

// closeStores closes engines no reader holds. The stores run on the mem
// backend, whose Close cannot fail.
func closeStores(stores []*residentStore) {
	for _, st := range stores {
		st.engine.Close()
	}
}

// resident returns how many loaded stores the registry holds and their page
// bytes.
func (r *storeRegistry) resident() (stores int, bytes int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, st := range r.stores {
		if st.loaded {
			stores++
		}
	}
	return stores, r.bytes
}

// leaseStore leases the resident store holding p's table under layout,
// materializing it on a miss exactly as replay.Operators would: sampled to
// the plan's rows, on the plan's device and seed, on the mem backend (the
// only one the service replays on), under a search slot of its own — the
// execution that follows takes its slot after this one is returned.
func (s *Service) leaseStore(ctx context.Context, p execPlan, layout partition.Partitioning, keep bool) (*residentStore, error) {
	t := p.tw.Table
	sample := schema.Table{Name: t.Name, Columns: t.Columns, Rows: min(t.Rows, p.cfg.MaxRows)}
	key := storeKey{
		table:  t.Name,
		schema: FingerprintOf(schema.TableWorkload{Table: &sample}),
		layout: layoutKey(layout),
		model:  p.key.model,
		seed:   p.cfg.Seed,
	}
	return s.stores.acquire(key, keep, func() (*storage.Engine, error) {
		cfg, _, err := p.cfg.Normalized()
		if err != nil {
			return nil, err
		}
		algo.AcquireSearchSlot()
		defer algo.ReleaseSearchSlot()
		_, sp := telemetry.StartSpan(ctx, "materialize "+t.Name)
		defer sp.End()
		defer s.tm.materialize.Since(time.Now())
		return s.stores.materialize(p.tw, layout, cfg)
	})
}
