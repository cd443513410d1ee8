package storage

import (
	"fmt"

	"knives/internal/attrset"
	"knives/internal/partition"
)

// PartMoveStats is what moving one partition (reading a source, or writing
// a target) actually did.
type PartMoveStats struct {
	Attrs      attrset.Set // the partition's column group
	RowSize    int         // bytes per partition row
	Pages      int64       // pages read or written
	Bytes      int64       // page bytes moved
	Seeks      int64       // buffer refills charged to this partition
	CacheLines int64       // cache lines of the partition's logical stream
}

// RepartitionStats reports what one Repartition did, with the same
// per-partition accounting discipline the cost model's migration pricing
// uses: Reads and Writes are ordered by decreasing row size (ties by
// canonical order) and SimTime is accumulated one partition term at a time
// in exactly that order, so the measured numbers can be compared against
// cost.MigrationCost bit for bit.
type RepartitionStats struct {
	RowsMoved               int64
	Reads, Writes           []PartMoveStats
	BytesRead, BytesWritten int64
	SeeksRead, SeeksWrite   int64
	LinesRead, LinesWritten int64
	PagesRead, PagesWritten int64
	SimTime                 float64
	PartsKept               int // partitions shared by both layouts (untouched)
}

// Repartition transforms the store from its current layout into newLayout
// without a reload: every source partition that does not survive the
// transition is read in full through a PartCursor over the current epoch —
// the scan path's reads and accounting, on the engine's device, with the
// moved partitions' combined row size as the buffer denominator — its
// columns staged, and every partition that newly appears is written in full
// by the writer a load writes with; column groups present in both layouts
// keep their files untouched.
// The new layout is published as a fresh epoch in one atomic swap, so
// concurrent readers are never disturbed — a snapshot streams the epoch it
// pinned, and superseded partition files stay open (retired) until Close. Repartitions serialize against each other.
//
// workers bounds the partition-parallel read and write pools; <= 0 uses one
// worker per moved partition. The worker count never changes a reported
// number, only how fast it is produced.
func (e *Engine) Repartition(newLayout partition.Partitioning, workers int) (RepartitionStats, error) {
	var stats RepartitionStats
	if newLayout.Table != e.table {
		return stats, fmt.Errorf("storage: repartition layout is over %v, engine stores %s",
			newLayout.Table, e.table.Name)
	}
	if err := newLayout.Validate(); err != nil {
		return stats, err
	}

	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return stats, fmt.Errorf("storage: repartition on closed engine")
	}
	old := e.epoch.Load()
	rows := old.rows

	// Classify: partitions shared by both layouts survive untouched with
	// their backends; the rest are moved.
	next := &engineEpoch{layout: newLayout.Canonical(), parts: make([]enginePart, len(newLayout.Parts)),
		loc: make([]ColLoc, len(e.table.Columns)), rows: rows}
	oldIndex := make(map[attrset.Set]int, len(old.parts))
	for pi := range old.parts {
		oldIndex[old.parts[pi].attrs] = pi
	}
	newByAttrs := make(map[attrset.Set]bool, len(next.layout.Parts))
	e.epochSeq++
	var writeParts []*enginePart // the parts of next that must be written
	// A failed repartition keeps the old epoch, so the backends created for
	// the aborted one must be closed on the way out — otherwise every retry
	// of a file-backed migration would leak open partition files.
	var created []Backend
	failed := true
	defer func() {
		if failed {
			for _, b := range created {
				b.Close()
			}
		}
	}()
	for i, p := range next.layout.Parts {
		newByAttrs[p] = true
		part, err := next.buildPart(e.table, i, e.disk.BlockSize)
		if err != nil {
			return stats, err
		}
		if pi, ok := oldIndex[p]; ok {
			part.backend = old.parts[pi].backend
			stats.PartsKept++
		} else {
			b, err := e.newBackend(fmt.Sprintf("%s_e%d_p%d", e.table.Name, e.epochSeq, i), int(e.disk.BlockSize))
			if err != nil {
				return stats, err
			}
			part.backend = b
			created = append(created, b)
			writeParts = append(writeParts, part)
		}
	}
	var readParts []*enginePart
	for pi := range old.parts {
		if !newByAttrs[old.parts[pi].attrs] {
			readParts = append(readParts, &old.parts[pi])
		}
	}

	widestFirst(readParts)
	widestFirst(writeParts)

	var readRowSize, writeRowSize int64
	for _, p := range readParts {
		readRowSize += int64(p.rowSize)
	}
	for _, p := range writeParts {
		writeRowSize += int64(p.rowSize)
	}

	// Read phase: stage every moved source partition's columns
	// column-contiguously in memory, one cursor per partition. Every column
	// of a created partition lies in some moved source partition (a
	// surviving target partition is identical to a surviving source
	// partition, so its columns were never in a moved one), which is what
	// lets the write phase assemble rows from the staging area alone.
	staged := make([][]byte, len(e.table.Columns))
	for _, p := range readParts {
		for _, col := range p.cols {
			staged[col] = make([]byte, rows*int64(e.table.Columns[col].Size))
		}
	}
	for _, p := range writeParts {
		for _, col := range p.cols {
			if staged[col] == nil {
				return stats, fmt.Errorf("storage: repartition target %v needs column %s, which no moved source partition holds",
					p.attrs, e.table.Columns[col].Name)
			}
		}
	}
	src := &Snapshot{table: e.table, disk: e.disk, ep: old}
	readStats := make([]PartMoveStats, len(readParts))
	if err := fanOut(len(readParts), workers, func(i int) error {
		p := readParts[i]
		c, err := src.Cursor(oldIndex[p.attrs], e.disk, readRowSize)
		if err == nil {
			err = stage(c, staged)
		}
		if err != nil {
			return fmt.Errorf("storage: repartition read %v: %w", p.attrs, err)
		}
		cs := c.Stats()
		readStats[i] = PartMoveStats{Attrs: p.attrs, RowSize: p.rowSize, Pages: cs.BytesRead / e.disk.BlockSize,
			Bytes: cs.BytesRead, Seeks: cs.Seeks, CacheLines: cs.CacheLines}
		return nil
	}); err != nil {
		return stats, err
	}

	// Write phase: assemble and write every created partition's pages.
	writeStats := make([]PartMoveStats, len(writeParts))
	if err := fanOut(len(writeParts), workers, func(i int) error {
		var err error
		writeStats[i], err = e.writePart(writeParts[i], next.loc, rows, writeRowSize, func(col int, r int64, dst []byte) {
			w := int64(len(dst))
			copy(dst, staged[col][r*w:(r+1)*w])
		})
		return err
	}); err != nil {
		return stats, err
	}

	// Aggregate in the model's summation order (the slices are already
	// move-ordered), each partition's simulated-time term computed and
	// added in its own statement — mirroring cost.MigrationCost exactly.
	if len(readParts) > 0 {
		stats.RowsMoved = rows
	}
	writeBW := e.disk.WriteBandwidth
	if writeBW <= 0 {
		writeBW = e.disk.ReadBandwidth
	}
	for _, ps := range readStats {
		stats.Reads = append(stats.Reads, ps)
		stats.PagesRead += ps.Pages
		stats.BytesRead += ps.Bytes
		stats.SeeksRead += ps.Seeks
		stats.LinesRead += ps.CacheLines
		sec := e.disk.SeekTime*float64(ps.Seeks) + float64(ps.Bytes)/e.disk.ReadBandwidth
		stats.SimTime += sec
	}
	for _, ps := range writeStats {
		stats.Writes = append(stats.Writes, ps)
		stats.PagesWritten += ps.Pages
		stats.BytesWritten += ps.Bytes
		stats.SeeksWrite += ps.Seeks
		stats.LinesWritten += ps.CacheLines
		sec := e.disk.SeekTime*float64(ps.Seeks) + float64(ps.Bytes)/writeBW
		stats.SimTime += sec
	}

	// Publish the new epoch; retire the superseded partition files so any
	// in-flight scan of the old epoch keeps working until Close.
	for _, p := range readParts {
		e.retired = append(e.retired, p.backend)
	}
	e.epoch.Store(next)
	failed = false
	return stats, nil
}

// stage drives c through its partition, copying each column's values into
// staged[col], contiguously in row order, a page of rows at a time.
func stage(c *PartCursor, staged [][]byte) error {
	p, loc := c.p, c.loc
	for r := 0; ; {
		page, start, n, err := c.NextRows(p.rowsPerPage)
		if err != nil || n == 0 {
			return err
		}
		for _, col := range p.cols {
			l := loc[col]
			dst := staged[col][r*l.Width : (r+n)*l.Width]
			for k := range n {
				off := (start+k)*p.rowSize + l.Off
				copy(dst[k*l.Width:(k+1)*l.Width], page[off:off+l.Width])
			}
		}
		r += n
	}
}
