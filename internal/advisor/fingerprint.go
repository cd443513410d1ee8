package advisor

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"

	"knives/internal/schema"
)

// Fingerprint canonically identifies one table workload: the table's schema
// (name, row count, and every column's name, kind, and byte width) plus the
// normalized query stream (each query reduced to its weight and attribute
// bitmask — IDs are cosmetic and never affect cost).
//
// Query ORDER is part of the fingerprint. The offline algorithms are
// order-insensitive (the metamorphic tests pin this), but O2P is an online
// algorithm and intentionally order-sensitive: the same queries arriving in
// a different order can leave it a different layout. Since O2P is a
// portfolio member, only workloads with the same arrival order are
// guaranteed byte-identical advice, so only those may share a cache entry.
type Fingerprint [sha256.Size]byte

// String renders the fingerprint as lowercase hex.
func (f Fingerprint) String() string { return hex.EncodeToString(f[:]) }

// FingerprintOf computes the fingerprint of a table workload: one SHA-256
// over its canonical bytes, built in a pooled buffer.
func FingerprintOf(tw schema.TableWorkload) Fingerprint {
	bp := getBuf()
	b := appendCanonical(*bp, tw)
	f := Fingerprint(sha256.Sum256(b))
	putBuf(bp, b)
	return f
}

// appendCanonical appends the bytes a fingerprint hashes: every integer
// little-endian in 8 bytes, every string its length and then its bytes.
func appendCanonical(b []byte, tw schema.TableWorkload) []byte {
	str := func(b []byte, s string) []byte {
		return append(binary.LittleEndian.AppendUint64(b, uint64(len(s))), s...)
	}
	t := tw.Table
	b = str(b, t.Name)
	b = binary.LittleEndian.AppendUint64(b, uint64(t.Rows))
	b = binary.LittleEndian.AppendUint64(b, uint64(len(t.Columns)))
	for _, c := range t.Columns {
		b = str(b, c.Name)
		b = binary.LittleEndian.AppendUint64(b, uint64(c.Kind))
		b = binary.LittleEndian.AppendUint64(b, uint64(c.Size))
	}
	b = binary.LittleEndian.AppendUint64(b, uint64(len(tw.Queries)))
	for _, q := range tw.Queries {
		// Zero weights price as 1 everywhere (schema.ForTable normalizes
		// them), so normalize here too: equal-cost workloads share advice.
		w := q.Weight
		if w == 0 {
			w = 1
		}
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(w))
		b = binary.LittleEndian.AppendUint64(b, uint64(q.Attrs))
	}
	return b
}
