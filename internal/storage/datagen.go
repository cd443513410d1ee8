// Package storage implements the storage substrate the experiments run on:
// a deterministic synthetic data generator, page-structured column-group
// files behind in-memory or on-disk backends, epoch snapshots whose
// partition cursors read them with proportional buffer sharing, the row
// digest, and in-place repartitioning. Queries execute above it, in
// internal/operator.
//
// The paper's headline numbers come from its I/O cost model, not from
// wall-clock runs, so this engine's job is validation: demonstrating that
// real scans over vertically partitioned data reproduce the cost model's
// orderings (bytes read, seek counts, layout rankings).
package storage

import (
	"encoding/binary"
	"fmt"

	"knives/internal/schema"
)

// DateDomain is the number of distinct day values date columns draw from
// (~7 years, like TPC-H's order dates). Generated dates are near-uniform
// over [0, DateDomain), so a predicate date < frac·DateDomain selects
// close to fraction frac of the rows — the knob the selectivity
// experiments turn.
const DateDomain = 2526

// Generator produces deterministic synthetic rows for a table. Values are
// derived from a seed, the column name, and the row number, so any
// partition of any layout regenerates identical bytes — which is what lets
// scan checksums validate tuple reconstruction across layouts.
type Generator struct {
	seed  uint64
	vocab []string
}

// NewGenerator returns a generator for the given seed.
func NewGenerator(seed int64) *Generator {
	return &Generator{seed: uint64(seed), vocab: buildVocab()}
}

// buildVocab returns a small word list used for string columns; the small
// domain keeps dictionary compression effective, like TPC-H's generated
// comments built from a fixed grammar.
func buildVocab() []string {
	base := []string{
		"quick", "silent", "bread", "knife", "slice", "crumb", "crust",
		"oven", "flour", "yeast", "baker", "sharp", "dull", "serrated",
		"blade", "table", "query", "index", "scan", "page", "buffer",
		"disk", "seek", "block", "tuple", "joins", "group", "layout",
	}
	return base
}

// splitmix64 advances a 64-bit state and returns a well-mixed value; it is
// the standard SplitMix64 generator, chosen because it is stateless per
// call and therefore trivially deterministic per (seed, column, row).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func (g *Generator) rnd(col string, row int64) uint64 {
	h := g.seed
	for _, b := range []byte(col) {
		h = splitmix64(h ^ uint64(b))
	}
	return splitmix64(h ^ uint64(row))
}

// Value writes the value of the given column at the given row into dst,
// which must be exactly col.Size bytes long.
func (g *Generator) Value(col schema.Column, row int64, dst []byte) {
	if len(dst) != col.Size {
		panic(fmt.Sprintf("storage: Value dst has %d bytes, column %s needs %d", len(dst), col.Name, col.Size))
	}
	r := g.rnd(col.Name, row)
	switch col.Kind {
	case schema.KindInt:
		// Key-like: mostly sequential with occasional jitter, giving delta
		// encoding something to work with.
		v := uint32(row) + uint32(r%7)
		putU32(dst, v)
	case schema.KindDate:
		v := uint32(r % DateDomain)
		putU32(dst, v)
	case schema.KindDecimal:
		// Prices with two decimals from a bounded domain.
		v := uint64(r%9_000_00) + 100_00
		if col.Size >= 8 {
			binary.LittleEndian.PutUint64(dst[:8], v)
			zero(dst[8:])
		} else {
			putU32(dst, uint32(v))
		}
	case schema.KindChar, schema.KindVarchar:
		g.fillText(dst, r)
	default:
		g.fillText(dst, r)
	}
}

// putU32 writes v little-endian into dst: zero-padded past 4 bytes,
// truncated to dst's width below (a 1–3 byte column keeps the low bytes).
func putU32(dst []byte, v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	zero(dst[copy(dst, b[:]):])
}

func zero(b []byte) {
	for i := range b {
		b[i] = 0
	}
}

// fillText fills dst with space-separated vocabulary words. Text is
// moderately repetitive, so LZ-family codecs compress it well — mirroring
// TPC-H comments.
func (g *Generator) fillText(dst []byte, r uint64) {
	pos := 0
	for pos < len(dst) {
		w := g.vocab[r%uint64(len(g.vocab))]
		r = splitmix64(r)
		for i := 0; i < len(w) && pos < len(dst); i++ {
			dst[pos] = w[i]
			pos++
		}
		if pos < len(dst) {
			dst[pos] = ' '
			pos++
		}
	}
}

// Row writes one full row (all columns of the table, in column order) into
// dst, which must be t.RowSize() bytes long.
func (g *Generator) Row(t *schema.Table, row int64, dst []byte) {
	if int64(len(dst)) != t.RowSize() {
		panic(fmt.Sprintf("storage: Row dst has %d bytes, table %s needs %d", len(dst), t.Name, t.RowSize()))
	}
	off := 0
	for _, col := range t.Columns {
		g.Value(col, row, dst[off:off+col.Size])
		off += col.Size
	}
}
