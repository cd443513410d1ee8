package cost

import (
	"fmt"
	"sort"

	"knives/internal/attrset"
	"knives/internal/schema"
)

// Migration pricing: the cost of transforming a table from one vertical
// layout into another on a live store. The paper compares static layouts;
// its Section 6.3 aside (and the advisor's drift trackers) admit that
// workloads shift, which makes "is a re-layout worth it?" a costable
// question: the store must READ every partition that does not survive the
// transition and WRITE every partition that newly appears, while untouched
// column groups cost nothing.
//
// The discipline mirrors the query cost model exactly so the storage
// engine's Repartition can reproduce every number bit for bit (the same
// contract the replay subsystem pins for scans):
//
//   - partitions are priced one at a time, each term computed and added in
//     its own statement (no fused multiply-add),
//   - the read phase shares the I/O buffer proportionally across the moved
//     source partitions, the write phase across the created partitions —
//     the common-granularity rule applied to the migration itself,
//   - the summation order is DECREASING row size, ties broken by canonical
//     (smallest-attribute) order. Per-partition terms depend only on row
//     sizes and the disk, so this order makes the total invariant under
//     column relabeling: a permuted table yields the same multiset of row
//     sizes, hence the identical floating-point sum.

// PartMove prices the movement of one partition (a read of a source
// partition or a write of a target partition).
type PartMove struct {
	// Attrs is the partition's column group.
	Attrs attrset.Set
	// RowSize is the partition's bytes per row.
	RowSize int64
	// Blocks and Bytes are the partition's size on disk.
	Blocks, Bytes int64
	// Seeks is the buffer refills the HDD discipline charges (0 under MM).
	Seeks int64
	// CacheLines is the cache lines of the partition's logical stream
	// (0 under HDD).
	CacheLines int64
	// Seconds is this partition's term of the migration cost.
	Seconds float64
}

// Migration is the priced breakdown of a layout transition: the moved
// source partitions (reads), the created target partitions (writes), and
// the total in the model's unit. Partitions shared by both layouts appear
// in neither list — they are not touched, which is why the cost of an
// identity migration is exactly zero.
type Migration struct {
	Model string
	// Pricing is the discipline the device was priced with; it decides
	// which mechanical dimension (seeks/bytes vs cache lines) a measured
	// repartition must match.
	Pricing Pricing
	// Reads and Writes are ordered by decreasing row size (ties by
	// canonical order) — the summation order of Seconds.
	Reads, Writes []PartMove
	// Integer totals across the moves.
	BytesRead, BytesWritten   int64
	SeeksRead, SeeksWrite     int64
	LinesRead, LinesWritten   int64
	BlocksRead, BlocksWritten int64
	// Seconds is the total migration cost in the model's unit.
	Seconds float64
}

// movedParts returns the partitions of a that are absent from b, i.e. the
// column groups the transition does not preserve.
func movedParts(a, b []attrset.Set) []attrset.Set {
	keep := make(map[attrset.Set]bool, len(b))
	for _, p := range b {
		keep[p] = true
	}
	var out []attrset.Set
	for _, p := range a {
		if !keep[p] {
			out = append(out, p)
		}
	}
	return out
}

// orderMoves sorts partitions by decreasing row size, ties by smallest
// attribute index. Equal row sizes price identically, so tie order can
// never change the floating-point sum — which is what makes the migration
// cost exactly invariant under column relabeling.
func orderMoves(t *schema.Table, parts []attrset.Set) []attrset.Set {
	out := append([]attrset.Set(nil), parts...)
	sort.Slice(out, func(i, j int) bool {
		si, sj := t.SetSize(out[i]), t.SetSize(out[j])
		if si != sj {
			return si > sj
		}
		return out[i].Min() < out[j].Min()
	})
	return out
}

// MigrationCost prices the transition oldParts -> newParts over table t
// under the given model. Both slices must be valid partitionings of t
// (complete, disjoint); callers validate via the partition package. The
// returned breakdown lists every moved partition's term in the exact order
// the total was summed, so the storage engine's measured accounting can be
// compared bit for bit.
func MigrationCost(m Model, t *schema.Table, oldParts, newParts []attrset.Set) (Migration, error) {
	dm, ok := m.(*DeviceModel)
	if !ok {
		return Migration{}, fmt.Errorf("cost: model %s has no migration pricing", m.Name())
	}
	reads := orderMoves(t, movedParts(oldParts, newParts))
	writes := orderMoves(t, movedParts(newParts, oldParts))
	if dm.dev.Pricing == PricingCache {
		return cacheMigration(dm.dev, t, reads, writes), nil
	}
	return blockMigration(dm.dev, t, reads, writes), nil
}

// blockMigration prices a migration on a block-priced device: every moved
// source partition is read in full through the proportionally shared
// buffer, every created partition written in full through the same
// discipline at the write bandwidth (falling back to the read bandwidth
// when unset, like CreationTime).
func blockMigration(d Device, t *schema.Table, reads, writes []attrset.Set) Migration {
	mig := Migration{Model: d.Name, Pricing: PricingBlock}
	var readRowSize, writeRowSize int64
	for _, p := range reads {
		readRowSize += t.SetSize(p)
	}
	for _, p := range writes {
		writeRowSize += t.SetSize(p)
	}
	w := d.WriteBandwidth
	if w <= 0 {
		w = d.ReadBandwidth
	}
	for _, p := range reads {
		s := t.SetSize(p)
		blocks := PartitionBlocks(t.Rows, s, d.BlockSize)
		bytes := blocks * d.BlockSize
		seeks := PartitionSeeks(t.Rows, s, readRowSize, d)
		sec := d.SeekTime*float64(seeks) + float64(bytes)/d.ReadBandwidth
		mig.Reads = append(mig.Reads, PartMove{
			Attrs: p, RowSize: s, Blocks: blocks, Bytes: bytes, Seeks: seeks, Seconds: sec,
		})
		mig.BlocksRead += blocks
		mig.BytesRead += bytes
		mig.SeeksRead += seeks
		mig.Seconds += sec
	}
	for _, p := range writes {
		s := t.SetSize(p)
		blocks := PartitionBlocks(t.Rows, s, d.BlockSize)
		bytes := blocks * d.BlockSize
		seeks := PartitionSeeks(t.Rows, s, writeRowSize, d)
		sec := d.SeekTime*float64(seeks) + float64(bytes)/w
		mig.Writes = append(mig.Writes, PartMove{
			Attrs: p, RowSize: s, Blocks: blocks, Bytes: bytes, Seeks: seeks, Seconds: sec,
		})
		mig.BlocksWritten += blocks
		mig.BytesWritten += bytes
		mig.SeeksWrite += seeks
		mig.Seconds += sec
	}
	return mig
}

// StreamLines returns the cache lines of a partition's logical stream of
// rows*rowSize bytes at the given line granularity — the integer arithmetic
// the storage engine counts transfers with (its cursors and Repartition use
// this very function), exported so the MM models and the engine can never
// disagree by a rounding mode.
func StreamLines(rows, rowSize, line int64) int64 {
	if rows <= 0 || rowSize <= 0 || line <= 0 {
		return 0
	}
	return (rows*rowSize-1)/line + 1
}

// cacheMigration prices a migration on a cache-priced device: every moved
// byte enters the cache once on read and once on write, so each moved
// partition charges its stream's cache lines times the miss latency on each
// side.
func cacheMigration(d Device, t *schema.Table, reads, writes []attrset.Set) Migration {
	mig := Migration{Model: d.Name, Pricing: PricingCache}
	line := d.CacheLineSize
	if line <= 0 {
		line = DefaultCacheLineSize
	}
	for _, p := range reads {
		s := t.SetSize(p)
		lines := StreamLines(t.Rows, s, line)
		sec := float64(lines) * d.MissLatency
		mig.Reads = append(mig.Reads, PartMove{
			Attrs: p, RowSize: s, CacheLines: lines, Seconds: sec,
		})
		mig.LinesRead += lines
		mig.Seconds += sec
	}
	for _, p := range writes {
		s := t.SetSize(p)
		lines := StreamLines(t.Rows, s, line)
		sec := float64(lines) * d.MissLatency
		mig.Writes = append(mig.Writes, PartMove{
			Attrs: p, RowSize: s, CacheLines: lines, Seconds: sec,
		})
		mig.LinesWritten += lines
		mig.Seconds += sec
	}
	return mig
}
