package storage

import (
	"fmt"

	"knives/internal/attrset"
	"knives/internal/cost"
	"knives/internal/partition"
	"knives/internal/schema"
)

// Snapshot pins one engine epoch for operator-level access: the physical
// layout, the row count, and per-partition page streams, all immutable
// after the snapshot is taken. Any number of snapshots (and the cursors
// opened on them) may be used concurrently with each other and with a
// Repartition publishing a new epoch — the pinned epoch's backends stay
// open (retired, at worst) until the engine is closed.
//
// Snapshot is the seam the operator layer (internal/operator) builds its
// σ/π/⋈ pipeline on: a snapshot hands out one PartCursor per partition and
// lets the caller compose the reads — while keeping the accounting
// (proportional buffer split, seek-per-refill, whole-page reads) in this
// package, so composed pipelines measure exactly what the cost model
// predicts. The monolithic "read every referenced partition and reconstruct"
// loop the cursors were cut from survives as their oracle in scan_test.go.
type Snapshot struct {
	table     *schema.Table
	disk      cost.Disk
	cacheLine int64
	ep        *engineEpoch
}

// Snapshot pins the engine's current epoch. It must not be called before
// Load has completed.
func (e *Engine) Snapshot() *Snapshot {
	return &Snapshot{table: e.table, disk: e.disk, cacheLine: e.cacheLine, ep: e.epoch.Load()}
}

// Table returns the logical table the snapshot stores.
func (s *Snapshot) Table() *schema.Table { return s.table }

// Rows returns the number of rows the pinned epoch holds.
func (s *Snapshot) Rows() int64 { return s.ep.rows }

// Layout returns the pinned epoch's partitioning (canonical order).
func (s *Snapshot) Layout() partition.Partitioning { return s.ep.layout }

// NumParts returns the number of partitions in the pinned layout.
func (s *Snapshot) NumParts() int { return len(s.ep.parts) }

// PartAttrs returns the column group of partition i (canonical order).
func (s *Snapshot) PartAttrs(i int) attrset.Set { return s.ep.parts[i].attrs }

// PartRowSize returns the bytes one row of partition i occupies.
func (s *Snapshot) PartRowSize(i int) int { return s.ep.parts[i].rowSize }

// Format returns the pinned epoch's row format: where each attribute of
// the table lies, indexed by attribute. The slice is the epoch's own and
// read-only; a plan binds its columns to it once, at build.
func (s *Snapshot) Format() []ColLoc { return s.ep.loc }

// CacheLine returns the granularity the engine counts cache-line
// transfers at (initialized from its device, see SetCacheLine).
func (s *Snapshot) CacheLine() int64 { return s.cacheLine }

// PartCursor streams one partition of a pinned epoch row by row, with the
// accounting the cost model assumes per referenced partition: whole pages
// fetched in order, one seek charged per buffer refill under the
// proportional split, BlockSize bytes per page. After a cursor has been
// advanced through every row, its Stats are the partition's share of a full
// scan — which is what lets an operator pipeline's per-leaf totals decompose
// into the cost model's per-partition terms bit for bit.
//
// A cursor keeps all state local; cursors over one snapshot (or many) may
// be used from different goroutines as long as each individual cursor
// stays on one.
type PartCursor struct {
	p   *enginePart
	loc []ColLoc // the epoch's row format
	dev cost.Device

	pagesBuff int64
	page      []byte   // current page: the backend's own, or a ring slot
	ring      [][]byte // page buffers a non-resident backend reads into; nil otherwise
	buffered  int64
	nextPage  int64
	inPage    int
	row       int64 // rows advanced so far (row index of current row + 1)
	rows      int64 // total rows in the epoch
	seeks     int64
	bytes     int64
	cacheLine int64
}

// Cursor opens a cursor over partition i, accounting against dev. The
// device's block size must equal the page size the epoch was materialized
// with (its geometry IS the file format); buffer size and the mechanical
// constants may differ from the engine's own device, which is how one
// materialized store serves measurements for several what-if devices.
//
// totalRowSize is the combined row size of every partition the surrounding
// query references — the denominator of the cost model's proportional
// buffer split. A cursor reading a partition on its own passes the
// partition's own row size.
func (s *Snapshot) Cursor(i int, dev cost.Device, totalRowSize int64) (*PartCursor, error) {
	if i < 0 || i >= len(s.ep.parts) {
		return nil, fmt.Errorf("storage: cursor over partition %d of %d", i, len(s.ep.parts))
	}
	p := &s.ep.parts[i]
	if dev.BlockSize != s.disk.BlockSize {
		return nil, fmt.Errorf("storage: cursor device block size %d does not match the %d-byte pages the store was materialized with",
			dev.BlockSize, s.disk.BlockSize)
	}
	if totalRowSize < int64(p.rowSize) {
		return nil, fmt.Errorf("storage: cursor totalRowSize %d below partition row size %d",
			totalRowSize, p.rowSize)
	}
	// The proportional buffer split, as the cost model computes it.
	buff := cost.BufferShare(dev.BufferSize, int64(p.rowSize), totalRowSize)
	pagesBuff := buff / dev.BlockSize
	if pagesBuff < 1 {
		pagesBuff = 1
	}
	line := dev.CacheLineSize
	if line <= 0 {
		line = s.cacheLine
	}
	c := &PartCursor{
		p: p, loc: s.ep.loc, dev: dev, pagesBuff: pagesBuff,
		rows: s.ep.rows, cacheLine: line,
	}
	if !p.backend.Resident() {
		c.ring = make([][]byte, 1)
	}
	return c, nil
}

// Attrs returns the cursor's partition column group.
func (c *PartCursor) Attrs() attrset.Set { return c.p.attrs }

// RowSize returns the bytes one partition row occupies.
func (c *PartCursor) RowSize() int { return c.p.rowSize }

// Hold guarantees that the pages under any rows consecutive rows are valid
// together: a page NextRows returned is reused only once the cursor has read
// past the rows-row window that began on it — one batch, for a vector leaf
// that keeps views of every page its batch straddles. It sizes the ring a
// non-resident backend reads into (resident pages never go away) and must be
// called before the first row is read.
func (c *PartCursor) Hold(rows int) {
	if c.ring != nil && rows > 0 {
		// The most pages rows consecutive rows can touch.
		c.ring = make([][]byte, (rows+c.p.rowsPerPage-2)/c.p.rowsPerPage+1)
	}
}

// step moves onto the next row, fetching (and accounting) the next page when
// the walk crosses a page boundary: one seek per buffer refill, BlockSize
// bytes per page.
func (c *PartCursor) step() error {
	if c.nextPage != 0 {
		c.inPage++
	}
	if c.nextPage != 0 && c.inPage != c.p.rowsPerPage {
		return nil
	}
	if c.buffered == 0 {
		c.seeks++
		c.buffered = c.pagesBuff
	}
	var buf []byte
	if c.ring != nil {
		slot := &c.ring[c.nextPage%int64(len(c.ring))]
		if *slot == nil {
			*slot = make([]byte, c.dev.BlockSize)
		}
		buf = *slot
	}
	page, err := c.p.backend.ReadPage(c.nextPage, buf)
	if err != nil {
		return err
	}
	c.page = page
	c.bytes += c.dev.BlockSize
	c.nextPage++
	c.buffered--
	c.inPage = 0
	return nil
}

// Next advances to the next row, fetching (and accounting) pages as the
// row walk crosses page boundaries. It returns false at end of stream.
func (c *PartCursor) Next() (bool, error) {
	if c.row >= c.rows {
		return false, nil
	}
	if err := c.step(); err != nil {
		return false, err
	}
	c.row++
	return true, nil
}

// NextRows advances through up to max rows that share one page, returning
// the page, the index of the first row within it, and the row count. It is
// accounting-equivalent to calling Next that many times: the page fetch,
// seek charge, and byte count land at exactly the same points in the
// stream, and Stats afterwards are bit-identical — which is what lets the
// vectorized scan batch rows without perturbing a single measured number.
// n == 0 means end of stream. The page is READ-ONLY — on a resident backend
// it is the store itself — and valid for as many further rows as Hold asked
// for: by default until the next Next/NextRows call, for a vector leaf until
// its next batch.
func (c *PartCursor) NextRows(max int) (page []byte, start, n int, err error) {
	if c.row >= c.rows || max <= 0 {
		return nil, 0, 0, nil
	}
	if err := c.step(); err != nil {
		return nil, 0, 0, err
	}
	start = c.inPage
	// The run ends at the page boundary, the stream end, or max — whichever
	// comes first. The n-1 follow-up rows stay in-page, so sequential Next
	// calls would have advanced inPage and row with no further fetches.
	avail := int64(c.p.rowsPerPage - c.inPage)
	if rem := c.rows - c.row; avail > rem {
		avail = rem
	}
	if avail > int64(max) {
		avail = int64(max)
	}
	n = int(avail)
	c.inPage += n - 1
	c.row += int64(n)
	return c.page, start, n, nil
}

// Col returns the current row's bytes of attribute a, valid until the next
// Next call and read-only like every page. It returns nil when the
// partition does not hold a.
func (c *PartCursor) Col(a int) []byte {
	if !c.p.attrs.Has(a) {
		return nil
	}
	l := c.loc[a]
	base := c.inPage*c.p.rowSize + l.Off
	return c.page[base : base+l.Width]
}

// Stats returns the cursor's accounting so far. Cache lines are counted
// over the logical stream the row walk has entered — StreamLines of the
// rows advanced — the partition's full-scan accounting once the cursor has
// been driven through every row.
func (c *PartCursor) Stats() PartScanStats {
	return PartScanStats{
		Attrs:      c.p.attrs,
		RowSize:    c.p.rowSize,
		BytesRead:  c.bytes,
		Seeks:      c.seeks,
		CacheLines: cost.StreamLines(c.row, int64(c.p.rowSize), c.cacheLine),
	}
}
