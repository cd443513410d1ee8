package storage

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"knives/internal/attrset"
	"knives/internal/cost"
	"knives/internal/partition"
	"knives/internal/schema"
)

// ScanStats reports what executing one query read: the totals of the
// partition cursors (snapshot.go) the query's plan opened.
type ScanStats struct {
	Tuples     int64   // tuples reconstructed
	BytesRead  int64   // page bytes fetched from the backends
	Seeks      int64   // buffer refills (one seek each, as in the cost model)
	SimTime    float64 // seconds charged by the virtual disk
	ReconJoins int64   // tuple-reconstruction joins performed
	Checksum   uint64  // row digest of the projected values (digest.go): layout-independent
	CacheLines int64   // cache lines touched walking the referenced column-group streams
	// Parts breaks the totals down per referenced partition, in the
	// layout's canonical order — the same order the cost model sums its
	// per-partition terms in, which is what lets replayed measurements
	// equal model predictions bit for bit.
	Parts []PartScanStats
}

// PartScanStats is one referenced partition's share of a scan.
type PartScanStats struct {
	Attrs      attrset.Set // the partition's column group
	RowSize    int         // bytes per partition row
	BytesRead  int64       // page bytes fetched for this partition
	Seeks      int64       // buffer refills charged to this partition
	CacheLines int64       // cache lines of the partition's logical stream touched
}

// Engine stores one table in a vertical layout, one page file per
// partition, and hands out epoch snapshots whose cursors read it under the
// paper's common-granularity rule: every partition containing a referenced
// attribute is read in full, through an I/O buffer shared proportionally to
// the partitions' row sizes. Queries execute above it, in internal/operator.
//
// The physical layout lives in an EPOCH the engine swaps atomically:
// Repartition builds the next epoch's partition files off to the side and
// publishes them in one pointer store, so any number of concurrent readers
// keep streaming the epoch their snapshot pinned while the store migrates
// underneath them. Superseded partition files stay open (retired) until
// Close, bounding what an in-flight read can ever observe to a fully
// materialized layout.
type Engine struct {
	table      *schema.Table
	disk       cost.Disk
	gen        *Generator
	cacheLine  int64
	newBackend func(name string, pageSize int) (Backend, error)

	epoch atomic.Pointer[engineEpoch]

	// mu serializes the structural operations (Repartition, Close) against
	// each other; readers never take it.
	mu       sync.Mutex
	retired  []Backend
	epochSeq int
	closed   bool
}

// engineEpoch is one immutable-after-publish physical layout: the partition
// files, the row count they hold, and the row format everything reading or
// writing them goes by. A Snapshot loads the epoch pointer once and never
// looks back at the engine.
type engineEpoch struct {
	layout partition.Partitioning
	parts  []enginePart
	loc    []ColLoc // by attribute
	rows   int64
}

// ColLoc is where one attribute lies in an epoch's row format: the
// partition holding it (canonical order), and its byte offset and width
// within that partition's rows.
type ColLoc struct{ Part, Off, Width int }

// DefaultCacheLine is the fallback cache-line granularity logical-stream
// transfers are counted at when the engine's device does not set one; it
// matches cost.DefaultCacheLineSize.
const DefaultCacheLine = 64

type enginePart struct {
	attrs       attrset.Set
	cols        []int // column indexes in attribute order
	rowSize     int
	rowsPerPage int
	backend     Backend
}

// buildPart lays partition i out over the table's columns: its row size and
// page capacity, and where each of its attributes lies in the epoch's row
// format. The caller attaches the backend.
func (ep *engineEpoch) buildPart(t *schema.Table, i int, blockSize int64) (*enginePart, error) {
	part := &ep.parts[i]
	part.attrs = ep.layout.Parts[i]
	part.attrs.ForEach(func(a int) {
		part.cols = append(part.cols, a)
		ep.loc[a] = ColLoc{Part: i, Off: part.rowSize, Width: t.Columns[a].Size}
		part.rowSize += t.Columns[a].Size
	})
	part.rowsPerPage = int(blockSize) / part.rowSize
	if part.rowsPerPage < 1 {
		return nil, fmt.Errorf("storage: partition %v row size %d exceeds block size %d",
			part.attrs, part.rowSize, blockSize)
	}
	return part, nil
}

// widestFirst orders partitions the way both fanOut pools take them and the
// migration cost model sums its terms: decreasing row size, ties by smallest
// attribute. The widest first leaves a narrow one to finish last; equal row
// sizes price identically, so tie order never changes a sum.
func widestFirst(parts []*enginePart) {
	slices.SortFunc(parts, func(a, b *enginePart) int {
		if a.rowSize != b.rowSize {
			return b.rowSize - a.rowSize
		}
		return a.attrs.Min() - b.attrs.Min()
	})
}

// NewEngine creates an engine for the table with the given layout and disk
// parameters. newBackend is invoked once per partition file (and again for
// every partition a later Repartition creates); pass nil to use in-memory
// backends.
func NewEngine(layout partition.Partitioning, disk cost.Disk, newBackend func(name string, pageSize int) (Backend, error)) (*Engine, error) {
	if err := layout.Validate(); err != nil {
		return nil, err
	}
	if err := disk.Validate(); err != nil {
		return nil, err
	}
	if newBackend == nil {
		newBackend = func(_ string, pageSize int) (Backend, error) {
			return NewMemBackend(pageSize), nil
		}
	}
	t := layout.Table
	// The device's own cache-line granularity drives the engine's line
	// accounting, so a cache-priced device measures with the lines it is
	// priced in without any caller having to call SetCacheLine.
	cacheLine := disk.CacheLineSize
	if cacheLine <= 0 {
		cacheLine = DefaultCacheLine
	}
	ep := &engineEpoch{layout: layout.Canonical(), parts: make([]enginePart, len(layout.Parts)), loc: make([]ColLoc, len(t.Columns))}
	for i := range ep.parts {
		part, err := ep.buildPart(t, i, disk.BlockSize)
		if err == nil {
			part.backend, err = newBackend(fmt.Sprintf("%s_p%d", t.Name, i), int(disk.BlockSize))
		}
		if err != nil {
			// The partitions before i already own a backend (an open file on
			// the file backend) that no engine will ever close.
			for _, built := range ep.parts[:i] {
				built.backend.Close()
			}
			return nil, err
		}
	}
	e := &Engine{table: t, disk: disk, cacheLine: cacheLine, newBackend: newBackend}
	e.epoch.Store(ep)
	return e, nil
}

// Table returns the logical table the engine stores.
func (e *Engine) Table() *schema.Table { return e.table }

// Layout returns the current epoch's partitioning (canonical order).
func (e *Engine) Layout() partition.Partitioning { return e.epoch.Load().layout }

// Rows returns the number of rows the current epoch holds.
func (e *Engine) Rows() int64 { return e.epoch.Load().rows }

// Bytes returns the page bytes the current epoch's partition files hold —
// what keeping the loaded engine resident costs.
func (e *Engine) Bytes() int64 {
	var pages int64
	for _, p := range e.epoch.Load().parts {
		pages += p.backend.Pages()
	}
	return pages * e.disk.BlockSize
}

// Close releases all partition backends, current and retired.
func (e *Engine) Close() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil
	}
	e.closed = true
	var first error
	for _, p := range e.epoch.Load().parts {
		if err := p.backend.Close(); err != nil && first == nil {
			first = err
		}
	}
	for _, b := range e.retired {
		if err := b.Close(); err != nil && first == nil {
			first = err
		}
	}
	e.retired = nil
	return first
}

// SetCacheLine changes the granularity Repartition (and a cursor whose
// device names none) counts cache-line transfers at. The engine initializes
// it from its device's CacheLineSize (64-byte default). A call that CHANGES
// the value must happen before any read, not concurrently with it; a call
// naming the current value writes nothing.
func (e *Engine) SetCacheLine(bytes int64) error {
	if bytes <= 0 {
		return fmt.Errorf("storage: cache line size %d must be positive", bytes)
	}
	if e.cacheLine != bytes {
		e.cacheLine = bytes
	}
	return nil
}

// Load generates rows rows with gen and writes every partition's pages.
func (e *Engine) Load(gen *Generator, rows int64) error {
	return e.LoadParallel(gen, rows, 1)
}

// LoadParallel is Load with a partition-parallel worker pool: each partition
// file is generated and written by one worker, workers at a time. Partitions
// share nothing during materialization — the generator derives every value
// from (seed, column, row) statelessly and each partition owns its backend —
// so any worker count produces byte-identical files. workers <= 0 uses one
// worker per partition. Load must complete before the first Snapshot (the
// same happens-before the engine has always required).
func (e *Engine) LoadParallel(gen *Generator, rows int64, workers int) error {
	e.gen = gen
	ep := e.epoch.Load()
	parts := make([]*enginePart, len(ep.parts))
	for i := range parts {
		parts[i] = &ep.parts[i]
	}
	widestFirst(parts)
	if err := fanOut(len(parts), workers, func(i int) error { return e.loadPart(parts[i], ep.loc, rows) }); err != nil {
		return err
	}
	ep.rows = rows
	return nil
}

// fanOut runs f(0..n-1) on min(workers, n) workers (<= 0: n) — the
// caller's goroutine and workers-1 more, each taking the next index until
// none is left — and returns the lowest-index error, like every fan-out in
// this codebase. A panicking call becomes its item's error: the pool runs
// under requests, and net/http recovers only the handler's own goroutine.
// A load's partitions and a repartition's movers share it.
func fanOut(n, workers int, f func(i int) error) error {
	if workers <= 0 || workers > n {
		workers = n
	}
	errs := make([]error, n)
	var next atomic.Int64
	work := func() {
		for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
			func() {
				defer func() {
					if r := recover(); r != nil {
						errs[i] = fmt.Errorf("storage: worker on item %d panicked: %v", i, r)
					}
				}()
				errs[i] = f(i)
			}()
		}
	}
	var wg sync.WaitGroup
	for range workers - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// loadPart generates and writes one partition's pages in the row format loc.
func (e *Engine) loadPart(p *enginePart, loc []ColLoc, rows int64) error {
	page := make([]byte, e.disk.BlockSize)
	inPage := 0
	for r := int64(0); r < rows; r++ {
		base := inPage * p.rowSize
		for _, col := range p.cols {
			l := loc[col]
			e.gen.Value(e.table.Columns[col], r, page[base+l.Off:base+l.Off+l.Width])
		}
		inPage++
		if inPage == p.rowsPerPage {
			if err := p.backend.WritePage(page); err != nil {
				return err
			}
			zero(page)
			inPage = 0
		}
	}
	if inPage > 0 {
		if err := p.backend.WritePage(page); err != nil {
			return err
		}
	}
	return nil
}
