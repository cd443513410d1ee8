package storage

import (
	"fmt"
	"testing"
)

// The row digest spelled out byte by byte: the definition digest.go's word
// loads and width cases must equal, with its own copy of the constants.
func refStep(h, w uint64) uint64 {
	x := (h ^ w) * 0xd6e8feb86659fd93
	return x ^ x>>32
}

// refFoldValue folds one value: byte j of the value is byte j%8 of word j/8,
// the last word zero-extended.
func refFoldValue(rh uint64, v []byte) uint64 {
	for at := 0; at < len(v); at += 8 {
		var w uint64
		for j := at; j < at+8 && j < len(v); j++ {
			w |= uint64(v[j]) << (8 * uint(j-at))
		}
		rh = refStep(rh, w)
	}
	return rh
}

// FuzzDigestVsReference holds the production loads (FoldValue's word loop and
// overlapping tail load, FoldColumn's per-width loops, dense and through a
// selection vector) to the byte-by-byte definition, uint64 for uint64, for
// widths 1..64 at arbitrary offsets and strides. Every byte of the buffer is
// non-zero and the LAST row's value ends on the buffer's last byte: a load
// that reads past its value either panics there or pulls a neighbour's
// non-zero bytes into the word and changes the hash.
func FuzzDigestVsReference(f *testing.F) {
	// Arguments: seed, off, wRaw (w-1), gap (stride-w), nRaw (rows-1),
	// selBits (bit k: row k survives), base (slot number of row 0).
	for _, w := range []uint8{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 15, 16, 17, 25, 44, 63, 64} {
		f.Add(uint64(w), uint8(w*7), w-1, uint8(0), uint8(12), uint32(0xa5a5_5a5a)^uint32(w), uint16(w)*37)
		f.Add(uint64(w)+100, uint8(1), w-1, uint8(1+w%13), uint8(30), uint32(0xffff_ffff), uint16(0))
	}
	f.Add(uint64(7), uint8(0), uint8(3), uint8(4), uint8(0), uint32(0), uint16(9)) // one row, none selected
	f.Fuzz(func(t *testing.T, seed uint64, off, wRaw, gap, nRaw uint8, selBits uint32, base uint16) {
		w := int(wRaw)%64 + 1
		n := int(nRaw)%32 + 1
		stride := w + int(gap)%48
		buf := make([]byte, int(off)+(n-1)*stride+w)
		x := seed | 1
		for i := range buf {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			buf[i] = byte(x>>32) | 1
		}
		col := buf[off:]

		start := make([]uint64, n) // arbitrary hashes to fold into
		want := make([]uint64, n)
		var sel []int32
		for k := range start {
			start[k] = refStep(seed, uint64(k))
			want[k] = refFoldValue(start[k], col[k*stride:k*stride+w])
			if got := FoldValue(start[k], col[k*stride:k*stride+w]); got != want[k] {
				t.Fatalf("FoldValue width %d row %d: %#x, definition %#x", w, k, got, want[k])
			}
			if selBits>>k&1 != 0 {
				sel = append(sel, int32(base)+int32(k))
			}
		}

		// Dense, in place and from a source vector into a destination one;
		// the source must come out untouched.
		rh := append([]uint64(nil), start...)
		FoldColumn(rh, rh, col, stride, w, nil, 0)
		dst := make([]uint64, n)
		FoldColumn(dst, start, col, stride, w, nil, 0)
		for k := range rh {
			if rh[k] != want[k] || dst[k] != want[k] {
				t.Fatalf("FoldColumn width %d stride %d row %d of %d: in place %#x, into a destination %#x, definition %#x",
					w, stride, k, n, rh[k], dst[k], want[k])
			}
			if start[k] != refStep(seed, uint64(k)) {
				t.Fatalf("FoldColumn width %d wrote its source vector at row %d", w, k)
			}
		}

		rh = rh[:0]
		var wantSum uint64 = 0x6a09e667f3bcc908
		for _, s := range sel {
			rh = append(rh, start[int(s)-int(base)])
			wantSum = refStep(wantSum, want[int(s)-int(base)])
		}
		if sel == nil {
			sel = []int32{} // an empty selection, not a dense column
		}
		FoldColumn(rh, rh, col, stride, w, sel, int(base))
		for k, s := range sel {
			if rh[k] != want[int(s)-int(base)] {
				t.Fatalf("FoldColumn width %d stride %d slot %d (sel %v, base %d): %#x, definition %#x",
					w, stride, s, sel, base, rh[k], want[int(s)-int(base)])
			}
		}
		if got := FoldRows(ChecksumSeed, rh); got != wantSum {
			t.Fatalf("FoldRows over %d row hashes: %#x, definition %#x", len(rh), got, wantSum)
		}
		sum := ChecksumSeed
		for _, r := range rh {
			sum = FoldRow(sum, r)
		}
		if sum != wantSum {
			t.Fatalf("FoldRow chain over %d row hashes: %#x, definition %#x", len(rh), sum, wantSum)
		}
		SeedRows(rh)
		for k := range rh {
			if rh[k] != 0xbb67ae8584caa73b {
				t.Fatalf("SeedRows[%d] = %#x", k, rh[k])
			}
		}
	})
}

// BenchmarkDigest measures FoldColumn by value width over 1024 rows laid out
// as a partition would hold them (the value plus 12 bytes of neighbours per
// row), dense and through a selection vector keeping every other row. MB/s
// counts value bytes folded.
func BenchmarkDigest(b *testing.B) {
	const rows = 1024
	for _, w := range []int{1, 4, 8, 10, 25, 44} {
		stride := w + 12
		col := make([]byte, rows*stride)
		for i := range col {
			col[i] = byte(i * 131)
		}
		rh := make([]uint64, rows)
		sel := make([]int32, 0, rows/2)
		for i := 0; i < rows; i += 2 {
			sel = append(sel, int32(i))
		}
		b.Run(fmt.Sprintf("w=%d", w), func(b *testing.B) {
			b.SetBytes(int64(rows * w))
			for i := 0; i < b.N; i++ {
				SeedRows(rh)
				FoldColumn(rh, rh, col, stride, w, nil, 0)
			}
		})
		b.Run(fmt.Sprintf("w=%d/sel", w), func(b *testing.B) {
			b.SetBytes(int64(len(sel) * w))
			for i := 0; i < b.N; i++ {
				SeedRows(rh[:len(sel)])
				FoldColumn(rh[:len(sel)], rh, col, stride, w, sel, 0)
			}
		})
	}
}
