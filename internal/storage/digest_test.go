package storage

import (
	"fmt"
	"testing"
)

// The row digest spelled out byte by byte: the definition digest.go's word
// loads, width cases and running keys must equal, with its own copy of the
// constants.
func refStep(h, w uint64) uint64 {
	x := (h ^ w) * 0xd6e8feb86659fd93
	return x ^ x>>32
}

// refCell hashes row i's value v of attribute a from the cell's key: byte j
// of the value is byte j%8 of word j/8, the last word zero-extended.
func refCell(i int64, a int, v []byte) uint64 {
	h := (uint64(i)*64 + uint64(a)) * 0x9e3779b97f4a7c15
	for at := 0; at < len(v); at += 8 {
		var w uint64
		for j := at; j < at+8 && j < len(v); j++ {
			w |= uint64(v[j]) << (8 * uint(j-at))
		}
		h = refStep(h, w)
	}
	return h
}

// FuzzDigestVsReference holds the production loads (Cell's word loop and
// overlapping tail load, SumColumn's per-width loops, dense and through a
// selection vector, with its running key) to the byte-by-byte cell-sum
// definition, uint64 for uint64, for widths 1..64 at arbitrary offsets,
// strides, row ids and attributes. Every byte of the buffer is non-zero and
// the LAST row's value ends on the buffer's last byte: a load that reads
// past its value either panics there or pulls a neighbour's non-zero bytes
// into the word and changes the sum. Each column is also summed in two runs
// cut at an arbitrary row, the way π sums a batch page run by page run:
// the second run's key must continue where the first one's stopped.
func FuzzDigestVsReference(f *testing.F) {
	// Arguments: seed, off, wRaw (w-1), gap (stride-w), nRaw (rows-1),
	// selBits (bit k: row k survives), base (slot number of row 0), rowRaw
	// (the row id of row 0 is rowRaw>>6), attr (mod 64), cut (mod rows+1).
	for _, w := range []uint8{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 15, 16, 17, 25, 44, 63, 64} {
		f.Add(uint64(w), uint8(w*7), w-1, uint8(0), uint8(12), uint32(0xa5a5_5a5a)^uint32(w), uint16(w)*37, uint64(w)<<20, w, w%13)
		f.Add(uint64(w)+100, uint8(1), w-1, uint8(1+w%13), uint8(30), uint32(0xffff_ffff), uint16(0), ^uint64(w), 63-w, uint8(31))
	}
	f.Add(uint64(7), uint8(0), uint8(3), uint8(4), uint8(0), uint32(0), uint16(9), uint64(0), uint8(0), uint8(0)) // one row, none selected
	f.Fuzz(func(t *testing.T, seed uint64, off, wRaw, gap, nRaw uint8, selBits uint32, base uint16, rowRaw uint64, attrRaw, cutRaw uint8) {
		w := int(wRaw)%64 + 1
		n := int(nRaw)%32 + 1
		stride := w + int(gap)%48
		row, attr, cut := int64(rowRaw>>6), int(attrRaw)%64, int(cutRaw)%(n+1)
		buf := make([]byte, int(off)+(n-1)*stride+w)
		x := seed | 1
		for i := range buf {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			buf[i] = byte(x>>32) | 1
		}
		col := buf[off:]
		rest := col[min(cut*stride, len(col)):] // the second run: row cut on

		var dense, selected uint64
		var sel []int32
		for k := 0; k < n; k++ {
			v := col[k*stride : k*stride+w]
			want := refCell(row+int64(k), attr, v)
			if got := Cell(row+int64(k), attr, v); got != want {
				t.Fatalf("Cell width %d row %d attr %d: %#x, definition %#x", w, row+int64(k), attr, got, want)
			}
			dense += want
			if selBits>>k&1 != 0 {
				sel = append(sel, int32(base)+int32(k))
				selected += want
			}
		}

		if got := SumColumn(col, stride, w, row, attr, n, nil, 0); got != dense {
			t.Fatalf("SumColumn width %d stride %d over %d rows: %#x, definition %#x", w, stride, n, got, dense)
		}
		if got := SumColumn(col, stride, w, row, attr, cut, nil, 0) +
			SumColumn(rest, stride, w, row+int64(cut), attr, n-cut, nil, 0); got != dense {
			t.Fatalf("SumColumn width %d stride %d over %d rows cut at %d: %#x, definition %#x", w, stride, n, cut, got, dense)
		}

		if sel == nil {
			sel = []int32{} // an empty selection, not a dense column
		}
		if got := SumColumn(col, stride, w, row, attr, n, sel, int(base)); got != selected {
			t.Fatalf("SumColumn width %d stride %d (sel %v, base %d): %#x, definition %#x", w, stride, sel, base, got, selected)
		}
		i := 0
		for i < len(sel) && int(sel[i]) < int(base)+cut {
			i++
		}
		if got := SumColumn(col, stride, w, row, attr, cut, sel[:i], int(base)) +
			SumColumn(rest, stride, w, row+int64(cut), attr, n-cut, sel[i:], int(base)+cut); got != selected {
			t.Fatalf("SumColumn width %d stride %d (sel %v, base %d) cut at %d: %#x, definition %#x", w, stride, sel, base, cut, got, selected)
		}
	})
}

// BenchmarkDigest measures SumColumn by value width over 1024 rows laid out
// as a partition would hold them (the value plus 12 bytes of neighbours per
// row), dense and through a selection vector keeping every other row. MB/s
// counts value bytes hashed.
func BenchmarkDigest(b *testing.B) {
	const rows = 1024
	for _, w := range []int{1, 4, 8, 10, 25, 44} {
		stride := w + 12
		col := make([]byte, rows*stride)
		for i := range col {
			col[i] = byte(i * 131)
		}
		sel := make([]int32, 0, rows/2)
		for i := 0; i < rows; i += 2 {
			sel = append(sel, int32(i))
		}
		b.Run(fmt.Sprintf("w=%d", w), func(b *testing.B) {
			b.SetBytes(int64(rows * w))
			for i := 0; i < b.N; i++ {
				digestSink += SumColumn(col, stride, w, int64(i), 3, rows, nil, 0)
			}
		})
		b.Run(fmt.Sprintf("w=%d/sel", w), func(b *testing.B) {
			b.SetBytes(int64(len(sel) * w))
			for i := 0; i < b.N; i++ {
				digestSink += SumColumn(col, stride, w, int64(i), 3, rows, sel, 0)
			}
		})
	}
}

// digestSink keeps BenchmarkDigest's sums live.
var digestSink uint64
