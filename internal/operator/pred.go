// Package operator is the system's one executor: σ/π/⋈ pipelines over
// pinned storage epochs, pulled batch at a time — every operator below the
// π at the root is a lazy stream of row batches that does no work until
// pulled, and every operator carries its own measurements (rows, seeks,
// bytes, cache lines, reconstruction joins, simulated seconds) so a
// pipeline's total cost decomposes exactly into the cost model's
// per-partition terms. RunGroup drives pipelines that share a snapshot and
// a predicate in lockstep, doing their common σ and digest work once per
// batch; Pipeline.Run is a group of one.
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
	"fmt"
	"math/bits"
)

// Pred is a selection predicate over one attribute's raw column bytes, as
// materialized by the storage engine (little-endian u32 for ints and
// dates, little-endian u64 for decimals, padded ASCII for chars). Match
// must be pure: the σ operator may evaluate it on every row of a
// partition stream.
//
// Match is the predicate's definition. The constructors below also tag the
// Pred with the comparison it performs, which lets the vectorized σ evaluate
// it inline over a page run instead of calling Match per row; a Pred built
// by hand carries no tag and always goes through Match. (To swap Match on a
// constructor-built Pred, copy Attr and Name into a fresh one: the tag
// would keep answering for the old Match.)
type Pred struct {
	// Attr is the attribute index the predicate reads.
	Attr int
	// Name describes the predicate in plans and reports, e.g. "a4<1263".
	Name string
	// Match decides the row given the attribute's column bytes.
	Match func(col []byte) bool

	form  predForm
	bound uint64
}

// predForm tags the comparisons filterRun evaluates without calling Match.
type predForm uint8

const (
	formMatch predForm = iota // no inline form: call Match
	formU32Less
	formU32GreaterEq
	formU64Less
)

// U32Less returns the predicate attr < bound over a little-endian uint32
// column (the engine's int and date encodings).
func U32Less(attr int, bound uint32) Pred {
	return Pred{
		Attr: attr,
		Name: fmt.Sprintf("a%d<%d", attr, bound),
		Match: func(col []byte) bool {
			return len(col) >= 4 && binary.LittleEndian.Uint32(col) < bound
		},
		form: formU32Less, bound: uint64(bound),
	}
}

// U32GreaterEq returns the predicate attr >= bound over a little-endian
// uint32 column.
func U32GreaterEq(attr int, bound uint32) Pred {
	return Pred{
		Attr: attr,
		Name: fmt.Sprintf("a%d>=%d", attr, bound),
		Match: func(col []byte) bool {
			return len(col) >= 4 && binary.LittleEndian.Uint32(col) >= bound
		},
		form: formU32GreaterEq, bound: uint64(bound),
	}
}

// U64Less returns the predicate attr < bound over a little-endian uint64
// column (the engine's decimal encoding).
func U64Less(attr int, bound uint64) Pred {
	return Pred{
		Attr: attr,
		Name: fmt.Sprintf("a%d<%d", attr, bound),
		Match: func(col []byte) bool {
			return len(col) >= 8 && binary.LittleEndian.Uint64(col) < bound
		},
		form: formU64Less, bound: bound,
	}
}

// filterRun evaluates the predicate over one page run — r.n rows at stride
// rs, the column w bytes at off — and writes the surviving batch slots to
// sel[k:], returning the new k. The tagged forms compile to a load, a
// subtract and an add per row: the slot is stored unconditionally and k
// advances by the comparison's borrow bit, so a 50 % selectivity costs no
// mispredictions. A column narrower than the comparison reads (which Match
// answers false on) and every untagged Pred take the Match loop.
func (p *Pred) filterRun(r *run, rs, off, w int, sel []int32, k int) int {
	col := r.rows[off:]
	switch {
	case p.form == formU32Less && w >= 4:
		for i := 0; i < r.n; i++ {
			v := uint64(binary.LittleEndian.Uint32(col[i*rs:]))
			sel[k] = int32(r.first + i)
			k += int((v - p.bound) >> 63) // both < 2^32: the top bit is v < bound
		}
	case p.form == formU32GreaterEq && w >= 4:
		for i := 0; i < r.n; i++ {
			v := uint64(binary.LittleEndian.Uint32(col[i*rs:]))
			sel[k] = int32(r.first + i)
			k += int((v-p.bound)>>63) ^ 1
		}
	case p.form == formU64Less && w >= 8:
		for i := 0; i < r.n; i++ {
			_, lt := bits.Sub64(binary.LittleEndian.Uint64(col[i*rs:]), p.bound, 0)
			sel[k] = int32(r.first + i)
			k += int(lt)
		}
	default:
		for i := 0; i < r.n; i++ {
			if p.Match(col[i*rs : i*rs+w]) {
				sel[k] = int32(r.first + i)
				k++
			}
		}
	}
	return k
}
