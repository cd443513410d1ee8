package storage

import (
	"bytes"
	"testing"

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
