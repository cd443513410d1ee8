package storage

import (
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"knives/internal/attrset"
	"knives/internal/cost"
	"knives/internal/partition"
	"knives/internal/schema"
)

func testTable(t *testing.T, rows int64) *schema.Table {
	t.Helper()
	tab, err := schema.NewTable("t", rows, []schema.Column{
		{Name: "id", Kind: schema.KindInt, Size: 4},
		{Name: "price", Kind: schema.KindDecimal, Size: 8},
		{Name: "ship", Kind: schema.KindDate, Size: 4},
		{Name: "mode", Kind: schema.KindChar, Size: 10},
		{Name: "note", Kind: schema.KindVarchar, Size: 44},
	})
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func smallDisk() cost.Disk {
	return cost.Disk{
		BlockSize:     512,
		BufferSize:    4 * 1024,
		ReadBandwidth: 1e6,
		SeekTime:      1e-3,
	}
}

func TestGeneratorIsDeterministic(t *testing.T) {
	tab := testTable(t, 10)
	g1, g2 := NewGenerator(42), NewGenerator(42)
	a := make([]byte, tab.RowSize())
	b := make([]byte, tab.RowSize())
	for r := int64(0); r < 10; r++ {
		g1.Row(tab, r, a)
		g2.Row(tab, r, b)
		if string(a) != string(b) {
			t.Fatalf("row %d differs between generators with the same seed", r)
		}
	}
	g3 := NewGenerator(43)
	g3.Row(tab, 0, b)
	g1.Row(tab, 0, a)
	if string(a) == string(b) {
		t.Error("different seeds produced identical rows")
	}
}

func TestGeneratorValueSizePanics(t *testing.T) {
	g := NewGenerator(1)
	defer func() {
		if recover() == nil {
			t.Error("Value with wrong dst size did not panic")
		}
	}()
	g.Value(schema.Column{Name: "x", Kind: schema.KindInt, Size: 4}, 0, make([]byte, 3))
}

// The core correctness property: scanning the same query over any layout
// must produce the same tuples (same checksum, same count).
func TestScanChecksumIsLayoutIndependent(t *testing.T) {
	tab := testTable(t, 1_000)
	gen := NewGenerator(7)
	layouts := []partition.Partitioning{
		partition.Row(tab),
		partition.Column(tab),
		partition.Must(tab, []attrset.Set{attrset.Of(0, 2), attrset.Of(1), attrset.Of(3, 4)}),
	}
	queries := []attrset.Set{
		attrset.Of(0),
		attrset.Of(1, 3),
		attrset.Of(0, 1, 2, 3, 4),
	}
	for qi, q := range queries {
		var want ScanStats
		for li, layout := range layouts {
			e, err := NewEngine(layout, smallDisk(), nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := e.Load(gen, tab.Rows); err != nil {
				t.Fatal(err)
			}
			got, err := e.Scan(q)
			if err != nil {
				t.Fatal(err)
			}
			if got.Tuples != tab.Rows {
				t.Errorf("query %d layout %d: %d tuples, want %d", qi, li, got.Tuples, tab.Rows)
			}
			if li == 0 {
				want = got
			} else if got.Checksum != want.Checksum {
				t.Errorf("query %d: checksum differs between layouts 0 and %d", qi, li)
			}
			if err := e.Close(); err != nil {
				t.Error(err)
			}
		}
	}
}

// Bytes read must follow the common-granularity rule: all pages of every
// referenced partition, nothing else.
func TestScanBytesMatchCostModelAccounting(t *testing.T) {
	tab := testTable(t, 5_000)
	gen := NewGenerator(3)
	d := smallDisk()
	layout := partition.Must(tab, []attrset.Set{attrset.Of(0, 1), attrset.Of(2), attrset.Of(3, 4)})
	e, err := NewEngine(layout, d, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.Load(gen, tab.Rows); err != nil {
		t.Fatal(err)
	}
	stats, err := e.Scan(attrset.Of(0, 2))
	if err != nil {
		t.Fatal(err)
	}
	wantBytes := (cost.PartitionBlocks(tab.Rows, 12, d.BlockSize) +
		cost.PartitionBlocks(tab.Rows, 4, d.BlockSize)) * d.BlockSize
	if stats.BytesRead != wantBytes {
		t.Errorf("BytesRead = %d, want %d", stats.BytesRead, wantBytes)
	}
	if stats.ReconJoins != tab.Rows {
		t.Errorf("ReconJoins = %d, want %d (two partitions touched)", stats.ReconJoins, tab.Rows)
	}
	if stats.SimTime <= 0 {
		t.Error("SimTime not charged")
	}
}

// The engine's measured behavior must reproduce the cost model's ordering:
// for a narrow query, column layout reads less and costs less sim-time than
// row layout; and a smaller buffer causes more seeks.
func TestEngineReproducesCostModelOrdering(t *testing.T) {
	tab := testTable(t, 20_000)
	gen := NewGenerator(11)
	d := smallDisk()
	q := attrset.Of(0)

	scan := func(layout partition.Partitioning, disk cost.Disk) ScanStats {
		e, err := NewEngine(layout, disk, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		if err := e.Load(gen, tab.Rows); err != nil {
			t.Fatal(err)
		}
		s, err := e.Scan(q)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	rowStats := scan(partition.Row(tab), d)
	colStats := scan(partition.Column(tab), d)
	if colStats.BytesRead >= rowStats.BytesRead {
		t.Errorf("column read %d bytes, row %d — column must read less", colStats.BytesRead, rowStats.BytesRead)
	}
	if colStats.SimTime >= rowStats.SimTime {
		t.Errorf("column sim time %v, row %v", colStats.SimTime, rowStats.SimTime)
	}

	wide := scan(partition.Column(tab), d)
	narrow := scan(partition.Column(tab), d.WithBuffer(d.BlockSize)) // one page per refill
	if narrow.Seeks <= wide.Seeks {
		t.Errorf("tiny buffer seeks = %d, default = %d — expected more", narrow.Seeks, wide.Seeks)
	}
}

func TestEngineFileBackend(t *testing.T) {
	tab := testTable(t, 2_000)
	gen := NewGenerator(5)
	dir := t.TempDir()
	newBackend := func(name string, pageSize int) (Backend, error) {
		return NewFileBackend(dir, name, pageSize)
	}
	e, err := NewEngine(partition.Column(tab), smallDisk(), newBackend)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.Load(gen, tab.Rows); err != nil {
		t.Fatal(err)
	}
	fileStats, err := e.Scan(attrset.Of(1, 4))
	if err != nil {
		t.Fatal(err)
	}

	em, err := NewEngine(partition.Column(tab), smallDisk(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer em.Close()
	if err := em.Load(gen, tab.Rows); err != nil {
		t.Fatal(err)
	}
	memStats, err := em.Scan(attrset.Of(1, 4))
	if err != nil {
		t.Fatal(err)
	}
	if fileStats.Checksum != memStats.Checksum || fileStats.BytesRead != memStats.BytesRead {
		t.Errorf("file backend stats %+v differ from memory backend %+v", fileStats, memStats)
	}
}

func TestEngineRejectsOversizedRows(t *testing.T) {
	tab := schema.MustTable("wide", 10, []schema.Column{
		{Name: "huge", Kind: schema.KindVarchar, Size: 1000},
	})
	d := smallDisk() // 512-byte blocks cannot hold a 1000-byte row
	if _, err := NewEngine(partition.Row(tab), d, nil); err == nil {
		t.Error("NewEngine accepted a row wider than a block")
	}
}

// TestFanOutBoundsGoroutinesAndRecoversPanics holds the load and
// repartition pool to its contract: it is workers wide counting the
// caller's goroutine (none other at one), every item runs once, and a
// panicking item comes back as that item's error — the lowest-index one —
// instead of killing the process the pool runs in.
func TestFanOutBoundsGoroutinesAndRecoversPanics(t *testing.T) {
	const n = 16
	for _, workers := range []int{1, 2, 3, n, 0} {
		base := runtime.NumGoroutine()
		var ran [n]atomic.Int32
		var inFlight, peakFlight, peakExtra atomic.Int64
		raise := func(p *atomic.Int64, v int64) {
			for old := p.Load(); v > old && !p.CompareAndSwap(old, v); old = p.Load() {
			}
		}
		err := fanOut(n, workers, func(i int) error {
			ran[i].Add(1)
			raise(&peakFlight, inFlight.Add(1))
			defer inFlight.Add(-1)
			raise(&peakExtra, int64(runtime.NumGoroutine()-base))
			runtime.Gosched()
			switch i {
			case 5, 11:
				panic(fmt.Sprintf("item %d", i))
			case 9:
				return errInjected
			}
			return nil
		})
		if err == nil || !strings.Contains(err.Error(), "panicked: item 5") {
			t.Errorf("workers %d: error %v, want item 5's panic", workers, err)
		}
		for i := range ran {
			if got := ran[i].Load(); got != 1 {
				t.Errorf("workers %d: item %d ran %d times", workers, i, got)
			}
		}
		width := int64(workers) // the caller's goroutine is one worker
		if workers <= 0 {
			width = n
		}
		if peakExtra.Load() > width-1 || peakFlight.Load() > width {
			t.Errorf("workers %d: %d goroutines beyond the caller's and %d items in flight, want at most %d and %d",
				workers, peakExtra.Load(), peakFlight.Load(), width-1, width)
		}
	}
	if err := fanOut(0, 4, func(int) error { panic("no items") }); err != nil {
		t.Errorf("no items: %v", err)
	}
}
