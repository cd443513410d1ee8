package storage

import "encoding/binary"

// The row digest: the one definition of the layout-independent result
// checksum. The operator pipeline's π computes it through this file (and so
// do its row-at-a-time oracles, Engine.Scan and the row π, through
// FoldValue/FoldRow), and nothing else in the tree knows its constants or
// its step.
//
//	step(h, w)    = x ^ x>>32  where  x = (h ^ w) * digestMul
//	rowHash(row)  = fold of step from RowSeed over the row's query columns in
//	                ascending attribute order, each value as its 8-byte
//	                little-endian words, the last word zero-extended
//	checksum      = fold of step from ChecksumSeed over rowHash of every
//	                surviving row, in row order
//
// A column-less row (σ on a column outside an empty projection) hashes to
// RowSeed and is folded like any other row, so such a result's checksum
// counts its rows; the empty result's checksum is ChecksumSeed.
//
// What the definition guarantees:
//
//  1. It is a function of the logical rows only. Values are cut into words at
//     column boundaries, never at partition, page, run, batch or segment
//     boundaries, so every layout, backend, batch size and executor that
//     reconstructs the same rows computes the same value.
//  2. A row's columns meet in ONE row hash, so a misaligned reconstruction
//     (column a of row i beside column b of row j) changes it; rows are
//     folded in order, so a permutation changes the checksum.
//  3. Every step is a bijection on uint64 in h for a fixed w and in w for a
//     fixed h (xor, multiplication by an odd constant and x ^ x>>32 each
//     are), so one changed word always changes its row hash and one changed
//     row hash always changes the checksum.
//  4. Row hashes are independent of each other. This is what makes the digest
//     fast: π folds a segment column-at-a-time into a scratch vector of row
//     hashes (FoldColumn — the multiplies of neighbouring rows overlap
//     instead of waiting on one chain), then pays one serial step per row
//     (FoldRows). A row hash folds its columns in ascending attribute order,
//     so projections whose attribute lists share a prefix share the row
//     hashes of that prefix: a group of them folds it once (FoldColumn's
//     source/destination form) and each pays FoldRows on its own vector.
//
// No load below reads past its value's last byte: an over-read would pull the
// neighbouring column's bytes into the word and make the value depend on the
// layout, silently breaking (1).
const (
	// ChecksumSeed is the checksum of the empty result.
	ChecksumSeed uint64 = 0x6a09e667f3bcc908
	// RowSeed is the row hash of the column-less row.
	RowSeed uint64 = 0xbb67ae8584caa73b

	digestMul uint64 = 0xd6e8feb86659fd93 // odd
)

// step folds one word into a hash.
func step(h, w uint64) uint64 {
	x := (h ^ w) * digestMul
	return x ^ x>>32
}

// FoldValue folds one column value into a row hash.
func FoldValue(rh uint64, v []byte) uint64 {
	n := len(v)
	switch {
	case n == 4:
		return step(rh, uint64(binary.LittleEndian.Uint32(v)))
	case n >= 8:
		j := 0
		for ; j+8 <= n; j += 8 {
			rh = step(rh, binary.LittleEndian.Uint64(v[j:]))
		}
		if t := n - j; t > 0 {
			// The value's last 8 bytes, shifted down to its last t: the
			// zero-extended tail word, loaded without leaving the value.
			rh = step(rh, binary.LittleEndian.Uint64(v[n-8:])>>(8*(8-t)))
		}
		return rh
	case n == 0:
		return rh
	}
	var w uint64
	for j, c := range v {
		w |= uint64(c) << (8 * j)
	}
	return step(rh, w)
}

// FoldRow folds one row hash into a checksum.
func FoldRow(h, rh uint64) uint64 { return step(h, rh) }

// FoldRows folds row hashes into a checksum, in order.
func FoldRows(h uint64, rh []uint64) uint64 {
	for _, r := range rh {
		h = step(h, r)
	}
	return h
}

// SeedRows starts a vector of row hashes.
func SeedRows(rh []uint64) {
	for i := range rh {
		rh[i] = RowSeed
	}
}

// FoldColumn folds one column of consecutive stored rows into row hashes:
// dst[k] = src[k] with the w-byte value at col[i*stride:] folded in, where i
// is k when sel is nil and sel[k]-base otherwise (sel lists surviving slots;
// base is the slot col starts at). dst and src may be the same vector (fold
// in place) or distinct ones of which src is at least as long: a group of
// projections folds a shared column prefix once and branches off it. The
// common widths get one load per value.
func FoldColumn(dst, src []uint64, col []byte, stride, w int, sel []int32, base int) {
	src = src[:len(dst)]
	if sel == nil {
		switch w {
		case 1:
			for k := range dst {
				dst[k] = step(src[k], uint64(col[k*stride]))
			}
		case 4:
			for k := range dst {
				dst[k] = step(src[k], uint64(binary.LittleEndian.Uint32(col[k*stride:])))
			}
		case 8:
			for k := range dst {
				dst[k] = step(src[k], binary.LittleEndian.Uint64(col[k*stride:]))
			}
		default:
			for k := range dst {
				o := k * stride
				dst[k] = FoldValue(src[k], col[o:o+w])
			}
		}
		return
	}
	sel = sel[:len(dst)]
	switch w {
	case 1:
		for k, s := range sel {
			dst[k] = step(src[k], uint64(col[(int(s)-base)*stride]))
		}
	case 4:
		for k, s := range sel {
			dst[k] = step(src[k], uint64(binary.LittleEndian.Uint32(col[(int(s)-base)*stride:])))
		}
	case 8:
		for k, s := range sel {
			dst[k] = step(src[k], binary.LittleEndian.Uint64(col[(int(s)-base)*stride:]))
		}
	default:
		for k, s := range sel {
			o := (int(s) - base) * stride
			dst[k] = FoldValue(src[k], col[o:o+w])
		}
	}
}
