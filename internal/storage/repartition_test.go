package storage

import (
	"sync"
	"testing"

	"knives/internal/attrset"
	"knives/internal/cost"
	"knives/internal/partition"
)

// loadEngine materializes a small engine for repartition tests.
func loadEngine(t *testing.T, layout partition.Partitioning, disk cost.Disk, rows int64, newBackend func(string, int) (Backend, error)) *Engine {
	t.Helper()
	e, err := NewEngine(layout, disk, newBackend)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	if err := e.Load(NewGenerator(7), rows); err != nil {
		t.Fatal(err)
	}
	return e
}

// TestRepartitionPreservesData pins the point of the epoch swap: after a
// split AND a merge, every query's checksum and measured stats equal a
// fresh materialization of the target layout.
func TestRepartitionPreservesData(t *testing.T) {
	tab := testTable(t, 500)
	disk := smallDisk()
	from := partition.Must(tab, []attrset.Set{attrset.Of(0, 1, 2), attrset.Of(3, 4)})
	to := partition.Must(tab, []attrset.Set{attrset.Of(0), attrset.Of(1, 2, 3), attrset.Of(4)})

	e := loadEngine(t, from, disk, 500, nil)
	if _, err := e.Repartition(to, 0); err != nil {
		t.Fatal(err)
	}
	if !e.Layout().Equal(to) {
		t.Fatalf("layout after repartition = %s, want %s", e.Layout(), to)
	}

	fresh := loadEngine(t, to, disk, 500, nil)
	queries := []attrset.Set{
		attrset.Of(0), attrset.Of(1), attrset.Of(2, 3), attrset.Of(0, 4), tab.AllAttrs(),
	}
	for _, q := range queries {
		got, err := e.Scan(q)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.Scan(q)
		if err != nil {
			t.Fatal(err)
		}
		if got.Checksum != want.Checksum {
			t.Errorf("query %v: migrated checksum %x != fresh %x", q, got.Checksum, want.Checksum)
		}
		if got.Seeks != want.Seeks || got.BytesRead != want.BytesRead || got.SimTime != want.SimTime {
			t.Errorf("query %v: migrated stats %+v != fresh %+v", q, got, want)
		}
	}
}

// TestRepartitionMatchesMigrationCostModel is the bit-for-bit contract:
// measured bytes, seeks, cache lines, and simulated time equal
// cost.MigrationCost exactly, on both backends.
func TestRepartitionMatchesMigrationCostModel(t *testing.T) {
	tab := testTable(t, 700)
	disk := smallDisk()
	disk.WriteBandwidth = 0.7e6
	from := partition.Row(tab)
	to := partition.Must(tab, []attrset.Set{attrset.Of(0, 2), attrset.Of(1), attrset.Of(3, 4)})

	backends := map[string]func(string, int) (Backend, error){
		"mem": nil,
		"file": func(name string, pageSize int) (Backend, error) {
			return NewFileBackend(t.TempDir(), name, pageSize)
		},
	}
	for name, nb := range backends {
		t.Run(name, func(t *testing.T) {
			e := loadEngine(t, from, disk, 700, nb)
			stats, err := e.Repartition(to, 0)
			if err != nil {
				t.Fatal(err)
			}
			want, err := cost.MigrationCost(cost.NewHDD(disk), tab, from.Parts, to.Parts)
			if err != nil {
				t.Fatal(err)
			}
			if stats.BytesRead != want.BytesRead || stats.BytesWritten != want.BytesWritten {
				t.Errorf("bytes read/written %d/%d, model %d/%d",
					stats.BytesRead, stats.BytesWritten, want.BytesRead, want.BytesWritten)
			}
			if stats.SeeksRead != want.SeeksRead || stats.SeeksWrite != want.SeeksWrite {
				t.Errorf("seeks read/write %d/%d, model %d/%d",
					stats.SeeksRead, stats.SeeksWrite, want.SeeksRead, want.SeeksWrite)
			}
			if stats.SimTime != want.Seconds {
				t.Errorf("measured SimTime %.18g != model %.18g", stats.SimTime, want.Seconds)
			}
			if stats.LinesRead != want.LinesRead && want.Model == "MM" {
				t.Errorf("cache lines read %d != model %d", stats.LinesRead, want.LinesRead)
			}
		})
	}
}

// TestRepartitionIdentityIsFree: migrating to the current layout moves
// nothing and costs exactly zero — the planner's identity property holds at
// the engine too.
func TestRepartitionIdentityIsFree(t *testing.T) {
	tab := testTable(t, 200)
	layout := partition.Must(tab, []attrset.Set{attrset.Of(0, 1), attrset.Of(2, 3, 4)})
	e := loadEngine(t, layout, smallDisk(), 200, nil)
	before, err := e.Scan(tab.AllAttrs())
	if err != nil {
		t.Fatal(err)
	}
	stats, err := e.Repartition(layout, 0)
	if err != nil {
		t.Fatal(err)
	}
	if stats.BytesRead != 0 || stats.BytesWritten != 0 || stats.SimTime != 0 || stats.RowsMoved != 0 {
		t.Errorf("identity repartition moved data: %+v", stats)
	}
	if stats.PartsKept != 2 {
		t.Errorf("identity repartition kept %d parts, want 2", stats.PartsKept)
	}
	after, err := e.Scan(tab.AllAttrs())
	if err != nil {
		t.Fatal(err)
	}
	if after.Checksum != before.Checksum {
		t.Error("identity repartition changed data")
	}
}

// TestRepartitionKeepsSharedParts: a partition present in both layouts is
// neither read nor written.
func TestRepartitionKeepsSharedParts(t *testing.T) {
	tab := testTable(t, 300)
	shared := attrset.Of(3, 4)
	from := partition.Must(tab, []attrset.Set{attrset.Of(0, 1, 2), shared})
	to := partition.Must(tab, []attrset.Set{attrset.Of(0), attrset.Of(1, 2), shared})
	e := loadEngine(t, from, smallDisk(), 300, nil)
	stats, err := e.Repartition(to, 0)
	if err != nil {
		t.Fatal(err)
	}
	if stats.PartsKept != 1 {
		t.Errorf("kept %d parts, want 1", stats.PartsKept)
	}
	for _, mv := range append(stats.Reads, stats.Writes...) {
		if mv.Attrs == shared {
			t.Errorf("shared partition %v was moved", shared)
		}
	}
}

// TestRepartitionWorkerCountInvariance: any worker count produces identical
// stats and identical data.
func TestRepartitionWorkerCountInvariance(t *testing.T) {
	tab := testTable(t, 400)
	from := partition.Row(tab)
	to := partition.Column(tab)
	var base RepartitionStats
	var baseSum uint64
	for i, workers := range []int{1, 2, 0} {
		e := loadEngine(t, from, smallDisk(), 400, nil)
		stats, err := e.Repartition(to, workers)
		if err != nil {
			t.Fatal(err)
		}
		sc, err := e.Scan(tab.AllAttrs())
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			base, baseSum = stats, sc.Checksum
			continue
		}
		if stats.SimTime != base.SimTime || stats.BytesRead != base.BytesRead ||
			stats.SeeksRead != base.SeeksRead || stats.SeeksWrite != base.SeeksWrite {
			t.Errorf("workers=%d changed stats: %+v vs %+v", workers, stats, base)
		}
		if sc.Checksum != baseSum {
			t.Errorf("workers=%d changed data", workers)
		}
	}
}

// TestScanConcurrentWithRepartition drives scans while the store migrates
// under them (the race detector guards the epoch swap): every scan must see
// a fully materialized layout — the checksum is layout-independent, so any
// torn epoch would corrupt it or crash on missing pages.
func TestScanConcurrentWithRepartition(t *testing.T) {
	tab := testTable(t, 300)
	from := partition.Row(tab)
	to := partition.Column(tab)
	e := loadEngine(t, from, smallDisk(), 300, nil)
	want, err := e.Scan(tab.AllAttrs())
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make([]error, 8)
	sums := make([]uint64, 8)
	start := make(chan struct{})
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			for j := 0; j < 5; j++ {
				sc, err := e.Scan(tab.AllAttrs())
				if err != nil {
					errs[i] = err
					return
				}
				sums[i] = sc.Checksum
				if sc.Checksum != want.Checksum {
					return // recorded; checked below
				}
			}
		}(i)
	}
	close(start)
	if _, err := e.Repartition(to, 0); err != nil {
		t.Fatal(err)
	}
	layouts := []partition.Partitioning{from, to}
	for k := 0; k < 3; k++ {
		if _, err := e.Repartition(layouts[k%2], 0); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	for i := range errs {
		if errs[i] != nil {
			t.Errorf("scan %d: %v", i, errs[i])
		}
		if sums[i] != want.Checksum {
			t.Errorf("scan %d saw checksum %x, want %x (torn epoch?)", i, sums[i], want.Checksum)
		}
	}
}

// countingBackend tracks closes so tests can pin the created-backend
// cleanup on failed repartitions.
type countingBackend struct {
	Backend
	closed    *int
	failWrite bool
}

func (c *countingBackend) WritePage(p []byte) error {
	if c.failWrite {
		return errInjected
	}
	return c.Backend.WritePage(p)
}

func (c *countingBackend) Close() error {
	*c.closed++
	return c.Backend.Close()
}

// TestRepartitionFailureClosesCreatedBackends: a repartition that fails
// mid-write keeps the old epoch AND closes the backends it created for
// the aborted one — a file-backed retry loop must not leak open files.
func TestRepartitionFailureClosesCreatedBackends(t *testing.T) {
	tab := testTable(t, 200)
	closed := 0
	made := 0
	e, err := NewEngine(partition.Row(tab), smallDisk(), func(string, int) (Backend, error) {
		made++
		// Backends created after the initial epoch (the repartition's) fail
		// their writes.
		return &countingBackend{Backend: NewMemBackend(512), closed: &closed, failWrite: made > 1}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.Load(NewGenerator(1), 200); err != nil {
		t.Fatal(err)
	}
	madeBefore := made
	if _, err := e.Repartition(partition.Column(tab), 0); err == nil {
		t.Fatal("failing write did not abort the repartition")
	}
	created := made - madeBefore
	if created == 0 {
		t.Fatal("repartition created no backends; fixture broken")
	}
	if closed != created {
		t.Errorf("failed repartition closed %d of %d created backends", closed, created)
	}
	// The old epoch survives intact.
	if got := e.Layout(); !got.Equal(partition.Row(tab)) {
		t.Errorf("failed repartition moved the layout to %s", got)
	}
	if _, err := e.Scan(tab.AllAttrs()); err != nil {
		t.Errorf("scan after failed repartition: %v", err)
	}
}

// TestRepartitionRejectsBadInput covers the validation path.
func TestRepartitionRejectsBadInput(t *testing.T) {
	tab := testTable(t, 50)
	other := testTable(t, 50)
	e := loadEngine(t, partition.Row(tab), smallDisk(), 50, nil)
	if _, err := e.Repartition(partition.Row(other), 0); err == nil {
		t.Error("repartition onto another table's layout succeeded")
	}
	bad := partition.Partitioning{Table: tab, Parts: []attrset.Set{attrset.Of(0)}}
	if _, err := e.Repartition(bad, 0); err == nil {
		t.Error("repartition onto an incomplete layout succeeded")
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Repartition(partition.Column(tab), 0); err == nil {
		t.Error("repartition on a closed engine succeeded")
	}
}

// TestRepartitionMMLinesMatchModel pins the cache-line accounting against
// the MM migration pricing.
func TestRepartitionMMLinesMatchModel(t *testing.T) {
	tab := testTable(t, 600)
	from := partition.Row(tab)
	to := partition.Must(tab, []attrset.Set{attrset.Of(0, 1), attrset.Of(2, 3, 4)})
	mm := cost.NewMM()
	disk := smallDisk()
	disk.CacheLineSize = mm.Device().CacheLineSize
	e := loadEngine(t, from, disk, 600, nil)
	stats, err := e.Repartition(to, 0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := cost.MigrationCost(mm, tab, from.Parts, to.Parts)
	if err != nil {
		t.Fatal(err)
	}
	if stats.LinesRead != want.LinesRead || stats.LinesWritten != want.LinesWritten {
		t.Errorf("cache lines %d/%d, model %d/%d",
			stats.LinesRead, stats.LinesWritten, want.LinesRead, want.LinesWritten)
	}
}
