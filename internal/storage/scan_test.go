package storage

import (
	"knives/internal/attrset"
	"knives/internal/cost"
)

// Engine.Scan is the monolithic executor production ran until every scan
// moved onto the operator pipeline: one loop that reads every referenced
// partition through its own private cursors, reconstructs tuples and folds
// the digest. It is kept verbatim as the ORACLE the cursor mechanics
// (snapshot.go) and the pipeline built on them are checked against — it
// shares the digest and the backends with production and none of the cursor
// code. TestEngineMatchesCostModelExactly and the repartition/torn-epoch
// suites use it here; pipeline_test.go (package storage_test, which may
// import the operator layer) pins operator pipelines to it.

// Scan executes a projection query: it reads every partition containing a
// referenced attribute in full, reconstructs tuples, and folds the
// projected attribute values into the row digest (digest.go), the
// layout-independent checksum.
//
// Scan snapshots the current epoch once and keeps all of its state in local
// cursors, so after Load has returned, any number of Scans may run
// concurrently over the same engine — including concurrently with a
// Repartition, which publishes a new epoch without disturbing the one an
// in-flight scan is streaming.
func (e *Engine) Scan(query attrset.Set) (ScanStats, error) {
	ep := e.epoch.Load()
	var stats ScanStats
	query = query.Intersect(e.table.AllAttrs())
	if query.IsEmpty() {
		return stats, nil
	}

	// Referenced partitions and the proportional buffer split.
	var refs []*enginePart
	var totalRowSize int64
	for pi := range ep.parts {
		p := &ep.parts[pi]
		if p.attrs.Overlaps(query) {
			refs = append(refs, p)
			totalRowSize += int64(p.rowSize)
		}
	}

	type cursor struct {
		p         *enginePart
		pagesBuff int64  // pages per buffer refill
		page      []byte // current page
		buf       []byte // what a non-resident backend reads pages into
		buffered  int64  // pages remaining in the buffer
		nextPage  int64  // next page index to fetch
		inPage    int    // row index within the current page
		seeks     int64  // buffer refills charged to this partition
		bytes     int64  // page bytes fetched for this partition
	}
	cursors := make([]*cursor, len(refs))
	for i, p := range refs {
		buff := e.disk.BufferSize * int64(p.rowSize) / totalRowSize
		pagesBuff := buff / e.disk.BlockSize
		if pagesBuff < 1 {
			pagesBuff = 1
		}
		cursors[i] = &cursor{p: p, pagesBuff: pagesBuff, buf: pageBuf(p.backend, e.disk.BlockSize)}
	}

	// fetch loads the cursor's next page, charging a seek whenever its
	// buffer allotment is exhausted (the cost model's refill rule).
	fetch := func(c *cursor) error {
		if c.buffered == 0 {
			c.seeks++
			c.buffered = c.pagesBuff
		}
		page, err := c.p.backend.ReadPage(c.nextPage, c.buf)
		if err != nil {
			return err
		}
		c.page = page
		c.bytes += e.disk.BlockSize
		c.nextPage++
		c.buffered--
		c.inPage = 0
		return nil
	}

	h := ChecksumSeed
	queryCols := query.Attrs()
	// Map each referenced column to (cursor, offset) for reconstruction.
	type colRef struct {
		c    *cursor
		off  int
		size int
	}
	colRefs := make([]colRef, 0, len(queryCols))
	for _, col := range queryCols {
		for _, c := range cursors {
			if !c.p.attrs.Has(col) {
				continue
			}
			off := 0
			for _, pc := range c.p.cols {
				if pc == col {
					colRefs = append(colRefs, colRef{c: c, off: off, size: e.table.Columns[col].Size})
				}
				off += e.table.Columns[pc].Size
			}
		}
	}

	for r := int64(0); r < ep.rows; r++ {
		for _, c := range cursors {
			if c.nextPage == 0 || c.inPage == c.p.rowsPerPage {
				if err := fetch(c); err != nil {
					return stats, err
				}
			}
		}
		rh := RowSeed
		for _, cr := range colRefs {
			base := cr.c.inPage * cr.c.p.rowSize
			rh = FoldValue(rh, cr.c.page[base+cr.off:base+cr.off+cr.size])
		}
		h = FoldRow(h, rh)
		for _, c := range cursors {
			c.inPage++
		}
		stats.Tuples++
		stats.ReconJoins += int64(len(refs) - 1)
	}

	// Aggregate per-partition measurements in cursor (canonical layout)
	// order, charging simulated time with the SAME per-partition grouping
	// and summation order as the block-pricing QueryCost — floating-point addition
	// is not associative, so any other order could differ in the last bit.
	for _, c := range cursors {
		// Cache lines of the partition's logical stream entered by the row
		// walk above: the walk is sequential and reads the partition in
		// full, so the distinct lines touched are exactly the lines of
		// [0, rows*rowSize) — counting them per row would recompute this
		// constant in the hot loop.
		lines := cost.StreamLines(ep.rows, int64(c.p.rowSize), e.disk.CacheLineSize)
		ps := PartScanStats{
			Attrs:      c.p.attrs,
			RowSize:    c.p.rowSize,
			BytesRead:  c.bytes,
			Seeks:      c.seeks,
			CacheLines: lines,
		}
		stats.Parts = append(stats.Parts, ps)
		stats.Seeks += ps.Seeks
		stats.BytesRead += ps.BytesRead
		stats.CacheLines += ps.CacheLines
		stats.SimTime += e.disk.SeekTime*float64(ps.Seeks) +
			float64(ps.BytesRead)/e.disk.ReadBandwidth
	}
	stats.Checksum = h
	return stats, nil
}

// pageBuf returns the buffer b.ReadPage needs: nil for a resident backend.
func pageBuf(b Backend, pageSize int64) []byte {
	if b.Resident() {
		return nil
	}
	return make([]byte, pageSize)
}
