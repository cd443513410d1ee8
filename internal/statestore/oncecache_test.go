package statestore

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

// N concurrent Do calls on one key run fn once, report ran to exactly one
// caller, and all answer the single computation's value.
func TestOnceCacheCollapsesConcurrentDo(t *testing.T) {
	c := NewOnceCache[string, int](4)
	const n = 64
	var calls, rans atomic.Int64
	release := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, ran, err := c.Do("k", func() (int, error) {
				calls.Add(1)
				<-release // hold the computation so the others pile up behind it
				return 42, nil
			})
			if err != nil || v != 42 {
				t.Errorf("Do = (%d, %v), want (42, nil)", v, err)
			}
			if ran {
				rans.Add(1)
			}
		}()
	}
	close(release)
	wg.Wait()
	if calls.Load() != 1 || rans.Load() != 1 {
		t.Fatalf("fn ran %d times, ran reported to %d callers; want 1 and 1", calls.Load(), rans.Load())
	}
	if v, ran, _ := c.Do("k", func() (int, error) { return 0, errors.New("must not run") }); v != 42 || ran {
		t.Fatalf("resolved key recomputed: (%d, ran=%v)", v, ran)
	}
}

// A failed fn is not cached: the key is dropped and the next Do recomputes.
func TestOnceCacheDropsFailedComputation(t *testing.T) {
	c := NewOnceCache[string, int](4)
	boom := errors.New("boom")
	if _, ran, err := c.Do("k", func() (int, error) { return 0, boom }); !ran || !errors.Is(err, boom) {
		t.Fatalf("failing Do = (ran=%v, %v), want (true, boom)", ran, err)
	}
	if c.Len() != 0 {
		t.Fatalf("failed entry stayed cached: Len = %d", c.Len())
	}
	v, ran, err := c.Do("k", func() (int, error) { return 7, nil })
	if v != 7 || !ran || err != nil {
		t.Fatalf("retry Do = (%d, ran=%v, %v), want (7, true, nil)", v, ran, err)
	}
}

// A failure whose entry was already replaced must not drop the replacement.
func TestOnceCacheFailureDropsOnlyItsOwnEntry(t *testing.T) {
	c := NewOnceCache[string, int](1)
	started, release := make(chan struct{}), make(chan struct{})
	done := make(chan error, 1)
	go func() {
		_, _, err := c.Do("k", func() (int, error) {
			close(started)
			<-release
			return 0, errors.New("late failure")
		})
		done <- err
	}()
	<-started
	c.Do("other", func() (int, error) { return 1, nil }) // evicts in-flight "k"
	c.Do("k", func() (int, error) { return 2, nil })     // a fresh, successful "k"
	close(release)
	if err := <-done; err == nil {
		t.Fatal("in-flight failure was swallowed")
	}
	if v, ran, _ := c.Do("k", func() (int, error) { return -1, nil }); v != 2 || ran {
		t.Fatalf("stale failure dropped the current entry: (%d, ran=%v)", v, ran)
	}
}

// An entry evicted past capacity while in flight still completes for the
// callers holding it; it is just no longer findable.
func TestOnceCacheEvictedInFlightStillCompletes(t *testing.T) {
	c := NewOnceCache[int, string](2)
	started, release := make(chan struct{}), make(chan struct{})
	var startOnce sync.Once
	results := make(chan string, 2)
	do := func() {
		v, _, err := c.Do(0, func() (string, error) {
			startOnce.Do(func() { close(started) })
			<-release
			return "slow", nil
		})
		if err != nil {
			t.Error(err)
		}
		results <- v
	}
	go do()
	<-started
	go do() // a waiter on the in-flight entry (or, if late, a recompute after release)
	for k := 1; k <= 3; k++ {
		c.Do(k, func() (string, error) { return "fast", nil })
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d past capacity 2", c.Len())
	}
	close(release)
	for i := 0; i < 2; i++ {
		if v := <-results; v != "slow" {
			t.Fatalf("caller %d got %q, want the in-flight value", i, v)
		}
	}
}

// Seed never overrides a resolved entry, and a seeded key answers without
// computing.
func TestOnceCacheSeed(t *testing.T) {
	c := NewOnceCache[string, int](4)
	c.Seed("seeded", 1)
	if v, ran, err := c.Do("seeded", func() (int, error) { return -1, nil }); v != 1 || ran || err != nil {
		t.Fatalf("seeded key = (%d, ran=%v, %v), want (1, false, nil)", v, ran, err)
	}
	c.Do("computed", func() (int, error) { return 2, nil })
	c.Seed("computed", 99)
	c.Seed("seeded", 99)
	for k, want := range map[string]int{"computed": 2, "seeded": 1} {
		if v, _, _ := c.Do(k, func() (int, error) { return -1, nil }); v != want {
			t.Errorf("Seed overrode resolved %q: %d, want %d", k, v, want)
		}
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
}

// DropFunc keeps the FIFO order of the survivors: after dropping the middle
// key, eviction still takes the oldest survivor first.
func TestOnceCacheDropFuncKeepsFIFOOrder(t *testing.T) {
	c := NewOnceCache[int, int](3)
	for k := 1; k <= 3; k++ {
		c.Seed(k, k)
	}
	c.DropFunc(func(k int) bool { return k == 2 })
	c.Seed(4, 4) // 1, 3, 4: at capacity
	c.Seed(5, 5) // evicts 1, the oldest survivor
	// Live keys first: probing a dead key inserts (and may evict) before
	// its failing fn drops it again.
	for _, k := range []int{3, 4, 5, 1, 2} {
		_, ran, _ := c.Do(k, func() (int, error) { return 0, errors.New("probe") })
		if live := k >= 3; ran == live {
			t.Errorf("key %d: live = %v, want %v", k, !ran, live)
		}
	}
}

// The zero value is an empty, unbounded cache.
func TestOnceCacheZeroValue(t *testing.T) {
	var c OnceCache[int, int]
	for k := 0; k < 100; k++ {
		c.Do(k, func() (int, error) { return k, nil })
	}
	if c.Len() != 100 {
		t.Fatalf("zero-value cache evicted: Len = %d, want 100", c.Len())
	}
}
