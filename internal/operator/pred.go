// Package operator is the system's one executor: σ/π/⋈ pipelines over
// pinned storage epochs, pulled batch at a time — every operator below the
// π at the root is a lazy stream of row batches that does no work until
// pulled, and every operator carries its own measurements (rows, seeks,
// bytes, cache lines, reconstruction joins, simulated seconds) so a
// pipeline's total cost decomposes exactly into the cost model's
// per-partition terms. A plan holds at most one σ, and σ has one form:
// attribute < bound over a little-endian u32 column (Pred). RunGroup drives
// pipelines that share a snapshot and a predicate in lockstep, doing their
// common σ and digest work once per batch; Pipeline.Run is a group of one.
//
// The package closes the measured==predicted loop for composed plans —
// selections pushed into partition scans, tuple-reconstruction joins
// stitching a query's attributes back together across vertical partitions,
// projections digesting the result. The accounting survives composition
// because the leaves read through the storage layer's cursor mechanics
// (storage.PartCursor) and the final aggregation keeps the cost model's
// summation order; everything above the leaves moves slice headers, never
// bytes, and charges nothing. The row-at-a-time pipeline this replaced is
// the test oracle in row_test.go.
package operator

import (
	"encoding/binary"
	"strconv"
)

// Pred is the one selection predicate: attribute Attr < Bound, reading the
// attribute's first four column bytes as a little-endian u32 — the
// engine's int and date encodings, the only columns a served selection
// names. Build refuses a Pred on a column narrower than four bytes.
type Pred struct {
	// Attr is the attribute index the predicate reads.
	Attr int
	// Bound is the exclusive upper bound: a row survives when its value is
	// below it, so 0 keeps nothing and 2^32-1 keeps every value but 2^32-1.
	Bound uint32
}

// U32Less returns the predicate attr < bound.
func U32Less(attr int, bound uint32) Pred { return Pred{Attr: attr, Bound: bound} }

// String renders the predicate the way plans and reports name it, e.g.
// "a10<1263".
func (p Pred) String() string {
	var b [24]byte
	return string(p.appendTo(b[:0]))
}

// appendTo appends String's rendering to b.
func (p Pred) appendTo(b []byte) []byte {
	b = strconv.AppendInt(append(b, 'a'), int64(p.Attr), 10)
	return strconv.AppendUint(append(b, '<'), uint64(p.Bound), 10)
}

// filterRun evaluates the predicate over one page run — r.n rows at stride
// rs, the column at off — and writes the surviving batch slots to sel[k:],
// returning the new k. Each row is a load, a subtract and an add: the slot
// is stored unconditionally and k advances by the comparison's borrow bit,
// so a 50 % selectivity costs no mispredictions.
func (p Pred) filterRun(r *run, rs, off int, sel []int32, k int) int {
	col, bound := r.rows[off:], uint64(p.Bound)
	for i := 0; i < r.n; i++ {
		v := uint64(binary.LittleEndian.Uint32(col[i*rs:]))
		sel[k] = int32(r.first + i)
		k += int((v - bound) >> 63) // both < 2^32: the top bit is v < bound
	}
	return k
}
