package storage

import (
	"bytes"
	"reflect"
	"testing"

	"knives/internal/attrset"
	"knives/internal/cost"
	"knives/internal/partition"
	"knives/internal/schema"
)

func snapTestEngine(t *testing.T, rows int64, parts []attrset.Set, dev cost.Device) (*Engine, *schema.Table) {
	t.Helper()
	tbl, err := schema.NewTable("snap", rows, []schema.Column{
		{Name: "s0", Kind: schema.KindInt, Size: 4},
		{Name: "s1", Kind: schema.KindDate, Size: 4},
		{Name: "s2", Kind: schema.KindDecimal, Size: 8},
		{Name: "s3", Kind: schema.KindChar, Size: 6},
	})
	if err != nil {
		t.Fatal(err)
	}
	layout, err := partition.New(tbl, parts)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(layout, dev, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	if err := e.Load(NewGenerator(9), rows); err != nil {
		t.Fatal(err)
	}
	return e, tbl
}

func snapDev() cost.Device {
	return cost.Device{
		Name: "tiny", Pricing: cost.PricingBlock,
		BlockSize: 64, BufferSize: 192,
		ReadBandwidth: 1e6, SeekTime: 1e-3,
		CacheLineSize: 16, MissLatency: 1e-7,
	}
}

// TestCursorMatchesScan drains one cursor per referenced partition under
// the proportional buffer split and requires each cursor's stats to equal
// the PartScanStats the monolithic Scan reports for the same partition.
func TestCursorMatchesScan(t *testing.T) {
	parts := []attrset.Set{attrset.Of(0, 2), attrset.Of(1), attrset.Of(3)}
	dev := snapDev()
	e, _ := snapTestEngine(t, 301, parts, dev)
	query := attrset.Of(0, 1) // references partitions 0 and 1, not 2
	want, err := e.Scan(query)
	if err != nil {
		t.Fatal(err)
	}

	snap := e.Snapshot()
	if snap.Rows() != 301 || snap.NumParts() != 3 || snap.Table().Name != "snap" {
		t.Fatalf("snapshot accessors: rows=%d parts=%d table=%s", snap.Rows(), snap.NumParts(), snap.Table().Name)
	}
	if snap.CacheLine() != dev.CacheLineSize {
		t.Fatalf("cache line %d, want %d", snap.CacheLine(), dev.CacheLineSize)
	}
	if got := snap.Layout().Parts; len(got) != 3 {
		t.Fatalf("layout parts: %v", got)
	}

	var total int64
	for i := 0; i < snap.NumParts(); i++ {
		if snap.PartAttrs(i).Overlaps(query) {
			total += int64(snap.PartRowSize(i))
		}
	}
	wi := 0
	for i := 0; i < snap.NumParts(); i++ {
		if !snap.PartAttrs(i).Overlaps(query) {
			continue
		}
		c, err := snap.Cursor(i, dev, total)
		if err != nil {
			t.Fatal(err)
		}
		if c.Attrs() != snap.PartAttrs(i) || c.RowSize() != snap.PartRowSize(i) {
			t.Fatalf("cursor identity mismatch on partition %d", i)
		}
		rows := 0
		for {
			ok, err := c.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			// Every attribute of the partition must be readable; others nil.
			snap.PartAttrs(i).ForEach(func(a int) {
				if c.Col(a) == nil {
					t.Fatalf("partition %d: Col(%d) nil", i, a)
				}
			})
			if c.Col(63) != nil {
				t.Fatal("Col outside the partition not nil")
			}
			rows++
		}
		if int64(rows) != snap.Rows() {
			t.Fatalf("partition %d: %d rows, want %d", i, rows, snap.Rows())
		}
		if got := c.Stats(); !reflect.DeepEqual(got, want.Parts[wi]) {
			t.Errorf("partition %d stats\n got %+v\nwant %+v", i, got, want.Parts[wi])
		}
		wi++
	}
}

func TestCursorErrors(t *testing.T) {
	dev := snapDev()
	e, _ := snapTestEngine(t, 40, []attrset.Set{attrset.All(4)}, dev)
	snap := e.Snapshot()
	if _, err := snap.Cursor(-1, dev, 22); err == nil {
		t.Error("negative partition index accepted")
	}
	if _, err := snap.Cursor(5, dev, 22); err == nil {
		t.Error("out-of-range partition index accepted")
	}
	bad := dev
	bad.BlockSize = 4096
	if _, err := snap.Cursor(0, bad, 22); err == nil {
		t.Error("mismatched block size accepted")
	}
	if _, err := snap.Cursor(0, dev, 1); err == nil {
		t.Error("totalRowSize below the partition's row size accepted")
	}
}

// TestCursorSnapshotSurvivesRepartition pins the epoch-pinning guarantee:
// a cursor opened before a Repartition keeps streaming the old epoch.
func TestCursorSnapshotSurvivesRepartition(t *testing.T) {
	dev := snapDev()
	e, tbl := snapTestEngine(t, 64, []attrset.Set{attrset.All(4)}, dev)
	snap := e.Snapshot()
	c, err := snap.Cursor(0, dev, int64(snap.PartRowSize(0)))
	if err != nil {
		t.Fatal(err)
	}
	next, err := partition.New(tbl, []attrset.Set{attrset.Of(0), attrset.Of(1, 2, 3)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Repartition(next, 1); err != nil {
		t.Fatal(err)
	}
	rows := 0
	for {
		ok, err := c.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		rows++
	}
	if rows != 64 {
		t.Fatalf("pinned cursor saw %d rows, want 64", rows)
	}
	if got := len(e.Snapshot().Layout().Parts); got != 2 {
		t.Fatalf("new snapshot has %d parts, want 2", got)
	}
}

// TestNextRowsMatchesNext drives two cursors over the same partition — one
// row by row through Next/Col, one in runs through NextRows and the epoch's
// row format (Snapshot.Format) with a
// rotating run length — and requires the same bytes in the same order AND
// bit-identical accounting (seeks, bytes, cache lines) at end of stream.
// This is the contract the vectorized scan's batching rests on.
func TestNextRowsMatchesNext(t *testing.T) {
	parts := []attrset.Set{attrset.Of(0, 2), attrset.Of(1), attrset.Of(3)}
	dev := snapDev()
	e, _ := snapTestEngine(t, 301, parts, dev)
	snap := e.Snapshot()
	total := int64(snap.PartRowSize(0) + snap.PartRowSize(1))

	for _, maxes := range [][]int{{1}, {3}, {64}, {1000}, {1, 5, 2, 17, 3}} {
		for pi := 0; pi < 2; pi++ {
			rowCur, err := snap.Cursor(pi, dev, total)
			if err != nil {
				t.Fatal(err)
			}
			runCur, err := snap.Cursor(pi, dev, total)
			if err != nil {
				t.Fatal(err)
			}
			rs := runCur.RowSize()
			attrs := runCur.Attrs().Attrs()

			// Collect the oracle stream row by row.
			var want []byte
			for {
				ok, err := rowCur.Next()
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					break
				}
				for _, a := range attrs {
					want = append(want, rowCur.Col(a)...)
				}
			}

			var got []byte
			mi := 0
			for {
				page, start, n, err := runCur.NextRows(maxes[mi%len(maxes)])
				mi++
				if err != nil {
					t.Fatal(err)
				}
				if n == 0 {
					break
				}
				for i := 0; i < n; i++ {
					base := (start + i) * rs
					for _, a := range attrs {
						l := snap.Format()[a]
						got = append(got, page[base+l.Off:base+l.Off+l.Width]...)
					}
				}
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("part %d maxes %v: NextRows stream diverges (%d vs %d bytes)", pi, maxes, len(got), len(want))
			}
			if gs, ws := runCur.Stats(), rowCur.Stats(); !reflect.DeepEqual(gs, ws) {
				t.Fatalf("part %d maxes %v: stats diverge\n got %+v\nwant %+v", pi, maxes, gs, ws)
			}
		}
	}

	// Col on an attribute the partition does not hold; the row format
	// places it in the partition that does.
	c, err := snap.Cursor(0, dev, total)
	if err != nil {
		t.Fatal(err)
	}
	read, err := snap.Cursor(0, dev, total)
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := read.Next(); !ok || err != nil {
		t.Fatalf("Next = %v, %v", ok, err)
	}
	if got := read.Col(1); got != nil {
		t.Fatalf("Col(absent) = %v", got)
	}
	if l := snap.Format()[1]; l.Part != 1 || l.Off != 0 || l.Width != snap.PartRowSize(1) {
		t.Fatalf("Format()[1] = %+v, want partition 1 at offset 0, %d bytes wide", l, snap.PartRowSize(1))
	}
	// NextRows with a non-positive max reads nothing and charges nothing.
	if _, _, n, err := c.NextRows(0); n != 0 || err != nil {
		t.Fatalf("NextRows(0) = %d,%v", n, err)
	}
	if st := c.Stats(); st.BytesRead != 0 || st.Seeks != 0 {
		t.Fatalf("NextRows(0) charged %+v", st)
	}
}
