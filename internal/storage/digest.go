package storage

import "encoding/binary"

// The row digest: the one definition of the layout-independent result
// checksum. The operator pipeline's π computes it through this file
// (SumColumn), and so do the oracles (Engine.Scan, the row π, replay's
// generator pass: Cell), and nothing else in the tree knows its constants
// or its step. It is a sum over cells, keyed by the cell's logical row id i
// and attribute a:
//
//	step(h, w)   = x ^ x>>32  where  x = (h ^ w) * digestMul
//	key(i, a)    = (64·i + a) · keyMul
//	G(i, a, v)   = fold of step from key(i, a) over v's 8-byte little-endian
//	               words, the last word zero-extended
//	checksum     = ChecksumSeed + Σ over surviving rows i of
//	               ( RowSeed + Σ over the query's attributes a of G(i, a, v[i][a]) )
//
// all mod 2^64. A column-less row (σ on a column outside an empty
// projection) adds RowSeed alone, so such a result's checksum counts its
// rows; the empty result's checksum is ChecksumSeed.
//
// What the definition guarantees:
//
//  1. It is a function of the logical rows only. Values are cut into words at
//     column boundaries, never at partition, page, run, batch or segment
//     boundaries, and i is the table row id on every layout, backend and
//     batch size, so every executor that reconstructs the same rows computes
//     the same value.
//  2. Every cell is keyed by where it belongs, not by where it was read: key
//     is injective for i < 2^58 and a < attrset.MaxAttrs (x ↦ x·keyMul is a
//     bijection mod 2^64). A misaligned reconstruction (row j's value under
//     row i's key), two rows swapped, or two columns swapped within a row
//     each change the terms they touch. What the sum gives up against an
//     ordered chain is that errors are not compounded: two faults whose
//     changes to the sum are exact negatives cancel, which for independent
//     faults happens with probability about 2^-64.
//  3. step is a bijection on uint64 in h for a fixed w and in w for a fixed
//     h (xor, multiplication by an odd constant and x ^ x>>32 each are), so
//     for a fixed key G is a bijection in each word: one changed word always
//     changes its cell's term, and so the checksum.
//  4. Terms are independent of each other and of order. This is what makes
//     the digest fast: a cell's term is a few multiplies with no chain
//     between cells, a column's terms add up into one running total
//     (SumColumn, a key one add from the next row's), and a query's checksum
//     is the sum of its columns' totals. A group of queries over one store
//     hashes each referenced cell once per request and assembles each
//     member's checksum in O(|query|) at the end of the stream.
//
// No load below reads past its value's last byte: an over-read would pull the
// neighbouring column's bytes into the word and make the value depend on the
// layout, silently breaking (1).
const (
	// ChecksumSeed is the checksum of the empty result.
	ChecksumSeed uint64 = 0x6a09e667f3bcc908
	// RowSeed is what each surviving row adds besides its cells.
	RowSeed uint64 = 0xbb67ae8584caa73b

	digestMul uint64 = 0xd6e8feb86659fd93 // odd
	keyMul           = 0x9e3779b97f4a7c15 // odd; untyped, so rowStep can wrap it
	// rowStep is key(i+1, a) - key(i, a), mod 2^64.
	rowStep uint64 = keyMul << 6 & (1<<64 - 1)
)

// step folds one word into a hash.
func step(h, w uint64) uint64 {
	x := (h ^ w) * digestMul
	return x ^ x>>32
}

// key is cell (row, attr)'s key.
func key(row int64, attr int) uint64 {
	return (uint64(row)<<6 + uint64(attr)) * keyMul
}

// fold folds one value's words into h.
func fold(h uint64, v []byte) uint64 {
	n := len(v)
	switch {
	case n == 4:
		return step(h, uint64(binary.LittleEndian.Uint32(v)))
	case n >= 8:
		j := 0
		for ; j+8 <= n; j += 8 {
			h = step(h, binary.LittleEndian.Uint64(v[j:]))
		}
		if t := n - j; t > 0 {
			// The value's last 8 bytes, shifted down to its last t: the
			// zero-extended tail word, loaded without leaving the value.
			h = step(h, binary.LittleEndian.Uint64(v[n-8:])>>(8*(8-t)))
		}
		return h
	case n == 0:
		return h
	}
	var w uint64
	for j, c := range v {
		w |= uint64(c) << (8 * j)
	}
	return step(h, w)
}

// Cell returns G(row, attr, v): the term value v adds to a checksum as
// attribute attr of surviving row row.
func Cell(row int64, attr int, v []byte) uint64 { return fold(key(row, attr), v) }

// SumColumn returns the sum of Cell over one column of consecutive stored
// rows: the w-byte value at col[k*stride:] is attribute attr of row row+k.
// With sel nil it sums k in [0, n); otherwise sel lists the surviving slots
// and it sums k = s-base for each s in sel (base is the slot col starts
// at), ignoring n. The common widths get one load per value.
func SumColumn(col []byte, stride, w int, row int64, attr, n int, sel []int32, base int) uint64 {
	var sum uint64
	if sel == nil {
		k := key(row, attr)
		switch w {
		case 1:
			for i := 0; i < n; i++ {
				sum += step(k, uint64(col[i*stride]))
				k += rowStep
			}
		case 4:
			for i := 0; i < n; i++ {
				sum += step(k, uint64(binary.LittleEndian.Uint32(col[i*stride:])))
				k += rowStep
			}
		case 8:
			for i := 0; i < n; i++ {
				sum += step(k, binary.LittleEndian.Uint64(col[i*stride:]))
				k += rowStep
			}
		default:
			for i := 0; i < n; i++ {
				o := i * stride
				sum += fold(k, col[o:o+w])
				k += rowStep
			}
		}
		return sum
	}
	// Slot s is row row-base+s, and its key is k0 + s·rowStep.
	k0 := key(row-int64(base), attr)
	switch w {
	case 1:
		for _, s := range sel {
			sum += step(k0+uint64(s)*rowStep, uint64(col[(int(s)-base)*stride]))
		}
	case 4:
		for _, s := range sel {
			sum += step(k0+uint64(s)*rowStep, uint64(binary.LittleEndian.Uint32(col[(int(s)-base)*stride:])))
		}
	case 8:
		for _, s := range sel {
			sum += step(k0+uint64(s)*rowStep, binary.LittleEndian.Uint64(col[(int(s)-base)*stride:]))
		}
	default:
		for _, s := range sel {
			o := (int(s) - base) * stride
			sum += fold(k0+uint64(s)*rowStep, col[o:o+w])
		}
	}
	return sum
}
