package storage

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"testing"

	"knives/internal/attrset"
	"knives/internal/cost"
	"knives/internal/partition"
	"knives/internal/schema"
)

// FuzzDatagen pins the generator contract the whole validation story rests
// on: values are a pure function of (seed, column, row) — so any partition
// of any layout regenerates identical bytes — and Value fills its
// destination completely, never leaving stale bytes that would desync
// checksums between layouts. The benchmark is rebuilt per case so the
// determinism claim covers (seed, sf), not just a fixed schema.
func FuzzDatagen(f *testing.F) {
	f.Add(int64(1), uint16(10), uint32(0), byte(0))
	f.Add(int64(-7), uint16(1), uint32(99), byte(3))
	f.Add(int64(0), uint16(1000), uint32(1<<20), byte(200))
	f.Fuzz(func(t *testing.T, seed int64, sfMilli uint16, row uint32, colSel byte) {
		if sfMilli == 0 {
			sfMilli = 1
		}
		sf := float64(sfMilli) / 1000
		li := schema.TPCH(sf).Table("lineitem")
		li2 := schema.TPCH(sf).Table("lineitem")
		if li.Rows != li2.Rows {
			t.Fatalf("TPCH(%v) row counts differ between builds: %d vs %d", sf, li.Rows, li2.Rows)
		}
		col := li.Columns[int(colSel)%len(li.Columns)]
		r := int64(row)
		if li.Rows > 0 {
			r %= li.Rows
		}
		// Two fresh generators with the same seed must agree; two fill
		// patterns must end identical, proving every dst byte was written.
		a := make([]byte, col.Size)
		b := make([]byte, col.Size)
		for i := range b {
			b[i] = 0xAA
		}
		NewGenerator(seed).Value(col, r, a)
		NewGenerator(seed).Value(li2.Columns[int(colSel)%len(li2.Columns)], r, b)
		if !bytes.Equal(a, b) {
			t.Errorf("seed %d sf %v %s row %d: value depends on dst contents or generator state",
				seed, sf, col.Name, r)
		}
	})
}

// FuzzRepartitionVsGenerator loads a random table (1–64 columns of every
// kind, narrow and wide) into a random layout on a shrunken HDD, SSD or MM
// device, repartitions it into another, and after each step reads every
// cell back through PartCursor.Col: each must equal Generator.Value. The
// oracle is the generator, not a second store — a load and a repartition
// write through one writer, so a writer bug would show in both. The
// repartition's stats must equal cost.MigrationCost exactly: pages, bytes,
// seeks and simulated-time bits under block pricing, cache lines under
// cache pricing. One shape bit puts the partitions in files.
//
// shape picks the table, device, block and buffer geometry and backend;
// rows the row count (0, 1, and counts across page and refill
// boundaries); from and to the two layouts.
func FuzzRepartitionVsGenerator(f *testing.F) {
	// shape: bits 0-5 the column count - 1, bits 6+ mod 3 the device (HDD,
	// SSD, MM), bit 8 the file backend.
	f.Add(uint64(0), uint16(0), uint64(1), uint64(2))        // HDD, 1 column, no rows
	f.Add(uint64(0x84), uint16(1), uint64(3), uint64(4))     // MM, 5 columns, 1 row
	f.Add(uint64(0x7f), uint16(700), uint64(5), uint64(6))   // SSD, 64 columns
	f.Add(uint64(0x1c7), uint16(257), uint64(9), uint64(9))  // SSD, files, an identity repartition
	f.Add(uint64(0x1bf), uint16(1499), uint64(7), uint64(8)) // HDD, files, 64 columns
	f.Add(uint64(0x14f), uint16(64), uint64(10), uint64(11)) // MM, files
	f.Add(uint64(0x3a3_5c29), uint16(333), uint64(12), uint64(13))
	f.Fuzz(func(t *testing.T, shape uint64, rows uint16, from, to uint64) {
		rng := rand.New(rand.NewPCG(shape, 0))
		cols := make([]schema.Column, 1+shape%64)
		kinds := []schema.ColumnKind{schema.KindInt, schema.KindDecimal, schema.KindDate, schema.KindChar, schema.KindVarchar}
		for i := range cols {
			size := 1 + rng.IntN(12)
			if rng.IntN(8) == 0 {
				size = 13 + rng.IntN(120)
			}
			cols[i] = schema.Column{Name: fmt.Sprintf("c%d", i), Kind: kinds[rng.IntN(len(kinds))], Size: size}
		}
		tab, err := schema.NewTable("fz", int64(rows)%1500, cols)
		if err != nil {
			t.Fatal(err)
		}
		fromL, toL := randomLayout(tab, from), randomLayout(tab, to)

		// Blocks of one to a few of the widest row, a buffer of a few blocks
		// with slack, so pages end mid-table and the proportional split
		// leaves some partitions a one-page share.
		var widest int64
		for _, l := range []partition.Partitioning{fromL, toL} {
			for _, p := range l.Parts {
				widest = max(widest, tab.SetSize(p))
			}
		}
		dev := []func() cost.Device{cost.HDDDevice, cost.SSDDevice, cost.MMDevice}[(shape>>6)%3]()
		dev.BlockSize = widest + rng.Int64N(3*widest+1)
		dev.BufferSize = dev.BlockSize*(1+rng.Int64N(4)) + rng.Int64N(dev.BlockSize)
		var newBackend func(string, int) (Backend, error)
		if shape>>8&1 == 1 {
			dir := t.TempDir()
			newBackend = func(name string, pageSize int) (Backend, error) { return NewFileBackend(dir, name, pageSize) }
		}

		gen := NewGenerator(int64(shape))
		e, err := NewEngine(fromL, dev, newBackend)
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		if err := e.Load(gen, tab.Rows); err != nil {
			t.Fatal(err)
		}
		checkCells(t, "load", e, gen)
		stats, err := e.Repartition(toL, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !e.Layout().Equal(toL) {
			t.Fatalf("layout after repartition = %s, want %s", e.Layout(), toL)
		}
		checkCells(t, "repartition", e, gen)

		// The same device under each discipline: block pricing gives pages,
		// bytes, seeks and seconds, cache pricing the lines.
		priced := func(p cost.Pricing) cost.Migration {
			d := dev
			d.Pricing = p
			m, err := cost.NewDeviceModel(d)
			if err != nil {
				t.Fatal(err)
			}
			mig, err := cost.MigrationCost(m, tab, fromL.Parts, toL.Parts)
			if err != nil {
				t.Fatal(err)
			}
			return mig
		}
		block, cache := priced(cost.PricingBlock), priced(cost.PricingCache)
		got := [...]int64{stats.PagesRead, stats.PagesWritten, stats.BytesRead, stats.BytesWritten,
			stats.SeeksRead, stats.SeeksWrite, stats.LinesRead, stats.LinesWritten}
		want := [...]int64{block.BlocksRead, block.BlocksWritten, block.BytesRead, block.BytesWritten,
			block.SeeksRead, block.SeeksWrite, cache.LinesRead, cache.LinesWritten}
		if got != want {
			t.Errorf("pages, bytes, seeks, lines read/written %v, model %v", got, want)
		}
		if stats.SimTime != block.Seconds {
			t.Errorf("SimTime %.18g, model %.18g", stats.SimTime, block.Seconds)
		}
		for i, mv := range append(stats.Reads, stats.Writes...) {
			b, c := append(block.Reads, block.Writes...)[i], append(cache.Reads, cache.Writes...)[i]
			if mv.Attrs != b.Attrs || mv.Pages != b.Blocks || mv.Bytes != b.Bytes || mv.Seeks != b.Seeks || mv.CacheLines != c.CacheLines {
				t.Errorf("move %d: %+v, model %+v / %d lines", i, mv, b, c.CacheLines)
			}
		}
	})
}

// randomLayout partitions tab's columns into a random number of groups.
func randomLayout(tab *schema.Table, seed uint64) partition.Partitioning {
	rng := rand.New(rand.NewPCG(seed, 1))
	groups := make([]attrset.Set, 1+rng.IntN(len(tab.Columns)))
	for a := range tab.Columns {
		g := rng.IntN(len(groups))
		groups[g] = groups[g].Add(a)
	}
	var parts []attrset.Set
	for _, g := range groups {
		if !g.IsEmpty() {
			parts = append(parts, g)
		}
	}
	return partition.Must(tab, parts)
}

// checkCells drives one cursor per partition of e's current epoch through
// every row and requires each cell to equal the generator's value.
func checkCells(t *testing.T, step string, e *Engine, gen *Generator) {
	t.Helper()
	snap := e.Snapshot()
	tab := snap.Table()
	if snap.Rows() != tab.Rows {
		t.Fatalf("%s: %d rows, want %d", step, snap.Rows(), tab.Rows)
	}
	for i := range snap.NumParts() {
		c, err := snap.Cursor(i, e.disk, int64(snap.PartRowSize(i)))
		if err != nil {
			t.Fatal(err)
		}
		for r := int64(0); ; r++ {
			ok, err := c.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			for _, a := range snap.PartAttrs(i).Attrs() {
				col := tab.Columns[a]
				want := make([]byte, col.Size)
				gen.Value(col, r, want)
				if got := c.Col(a); !bytes.Equal(got, want) {
					t.Fatalf("%s: row %d column %s = %q, generator %q", step, r, col.Name, got, want)
				}
			}
		}
	}
}
