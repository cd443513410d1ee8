package operator

import (
	"fmt"

	"knives/internal/attrset"
	"knives/internal/cost"
	"knives/internal/storage"
)

// The executor: σ/π/⋈ plans run batch-at-a-time. Every operator moves a
// Batch — up to BatchSize consecutive rows plus a selection vector — and no
// operator moves a row's bytes at all: a batch is a set of VIEWS over the
// pages its leaves' cursors hand out (the store's own pages on a resident
// backend), one view per partition and one run per page the batch
// straddles, its columns bound once when the plan is built (binding). σ
// reads the predicate column where it lies and writes a selection vector, ⋈
// degenerates to chunk alignment because leaves emit consecutive IDs in
// lockstep chunks, and π sums the surviving rows' cells straight off the
// pages into the row digest (storage/digest.go) — once for a whole group
// of pipelines (group.go), which also share σ's vector. The physical
// accounting is the PartCursor's, page fetch for page fetch, wherever
// batches are cut — so checksums, row counts, and ScanStats are bit-equal
// to the row-at-a-time oracle's (row_test.go).
//
// Lifetime: pages are read-only, always — on a resident backend a view IS
// the store. A batch, and every byte reachable through it, is valid until
// its leaves' next NextBatch call: the next fill drops the batch's page
// references (nothing stays pinned past a batch) and a non-resident backend
// reuses the buffers underneath. Whoever keeps bytes longer copies them.

// DefaultBatchSize is the rows per batch when ExecOptions leaves it zero:
// big enough to amortize per-batch overhead, small enough that a plan's
// batches stay cache-resident.
const DefaultBatchSize = 1024

// MaxBatchSize caps requested batch sizes; beyond it a batch only grows its
// selection vector and run lists.
const MaxBatchSize = 1 << 16

// run is one page's share of a leaf batch: n consecutive rows occupying
// batch slots first..first+n-1, whose partition rows start at rows[0] — the
// page, sliced at the run's first row and never copied.
type run struct {
	rows  []byte
	first int
	n     int
}

// view is one leaf's window onto its partition for the current batch: the
// page runs in slot order and the partition's row stride.
type view struct {
	runs    []run
	rowSize int
	at      int // the run the last row lookup landed in; lookups mostly ascend
}

// row returns slot i's partition row (and whatever follows it on the page).
func (v *view) row(i int) []byte {
	k := v.at
	if k >= len(v.runs) || i < v.runs[k].first {
		k = 0
	}
	for i >= v.runs[k].first+v.runs[k].n {
		k++
	}
	v.at = k
	return v.runs[k].rows[(i-v.runs[k].first)*v.rowSize:]
}

// binding is where a plan's batches find their columns, fixed at build: the
// epoch's row format (storage.Snapshot.Format) and, per partition, the view
// of the leaf reading it (nil where none does). A leaf refills its view and
// never replaces it, so every batch of a plan shares one binding.
type binding struct {
	loc   []storage.ColLoc
	views []*view
}

// Batch is one chunk of up to BatchSize consecutive rows flowing through a
// vectorized pipeline. Rows occupy slots 0..n-1; slot i holds row Base+i of
// the stored table, and attribute a's value lies where the plan's binding
// places it: in slot i's row of the view of the partition that stores a. A
// nil selection vector means every slot survives; a non-nil one lists the
// surviving slots in ascending order (the plan's σ writes it).
type Batch struct {
	// Base is the table row ID of slot 0; leaves emit consecutive IDs, so
	// slot i is row Base+i.
	Base int64

	n     int
	attrs attrset.Set
	sel   []int32
	bind  *binding
}

// Len returns the number of row slots filled.
func (b *Batch) Len() int { return b.n }

// Sel returns the selection vector: the surviving slots in ascending order,
// or nil when every slot survives.
func (b *Batch) Sel() []int32 { return b.sel }

// Attrs returns the attribute set the batch carries values for.
func (b *Batch) Attrs() attrset.Set { return b.attrs }

// Col returns slot i's bytes of attribute a (no selection applied), or nil
// when the batch does not carry a. The bytes are a read-only window onto a
// page, valid as long as the batch is.
func (b *Batch) Col(a, i int) []byte {
	if !b.attrs.Has(a) {
		return nil
	}
	l := b.bind.loc[a]
	return b.bind.views[l.Part].row(i)[l.Off : l.Off+l.Width : l.Off+l.Width]
}

// live returns how many of the batch's slots survive its selection.
func (b *Batch) live() int {
	if b.sel != nil {
		return len(b.sel)
	}
	return b.n
}

// VecOperator is a pull-based batch iterator: NextBatch returns the
// stream's next batch, or (nil, nil) at end of stream. Batches are owned by
// the operator that returned them and are valid only until the next
// NextBatch call. Stats may be read at any point and reports the operator's
// own work (not its children's) so far; Name renders the operator for plan
// displays, e.g. "σ(a4<1263)".
type VecOperator interface {
	NextBatch() (*Batch, error)
	Stats() OpStats
	Name() string
}

// VecScan is the vectorized leaf: it cuts batches from a storage.PartCursor
// in page-sized runs (NextRows) and keeps, per run, the page itself — the
// batch is a list of views, not a copy. The cursor holds one batch's worth
// of pages valid (storage.PartCursor.Hold), which is the batch's lifetime:
// until this leaf's next NextBatch. All physical I/O (and therefore all
// cost) in a pipeline happens here, with the cursor's buffer, seek, and page
// accounting.
type VecScan struct {
	c    *storage.PartCursor
	dev  cost.Device
	size int
	buf  Batch
	view view // the plan's binding points at it for the plan's life
	out  int64
}

// newVecScan opens a leaf over cur, partition part of bind's snapshot, and
// binds its view there.
func newVecScan(bind *binding, part int, cur *storage.PartCursor, dev cost.Device, size int) *VecScan {
	cur.Hold(size)
	s := &VecScan{c: cur, dev: dev, size: size,
		buf: Batch{attrs: cur.Attrs(), bind: bind}, view: view{rowSize: cur.RowSize()}}
	bind.views[part] = &s.view
	return s
}

// NextBatch cuts the next batch: up to the batch size in page-sized runs, no
// per-row work. The previous batch's page references are dropped first.
func (s *VecScan) NextBatch() (*Batch, error) {
	b, v := &s.buf, &s.view
	clear(v.runs)
	v.runs, v.at = v.runs[:0], 0
	b.Base, b.sel, b.n = s.out, nil, 0
	for b.n < s.size {
		page, start, n, err := s.c.NextRows(s.size - b.n)
		if err != nil {
			return nil, err
		}
		if n == 0 {
			break
		}
		v.runs = append(v.runs, run{rows: page[start*v.rowSize:], first: b.n, n: n})
		b.n += n
	}
	if b.n == 0 {
		return nil, nil
	}
	s.out += int64(b.n)
	return b, nil
}

// PartStats returns the leaf's physical accounting in the engine's
// per-partition form.
func (s *VecScan) PartStats() storage.PartScanStats { return s.c.Stats() }

// Stats prices the leaf's reads under its device's discipline: seek plus
// scan time for block devices, cache-line transfers times miss latency for
// cache devices — exactly the cost model's per-partition term.
func (s *VecScan) Stats() OpStats {
	ps := s.c.Stats()
	st := OpStats{
		Op: "scan", Name: s.Name(), RowsOut: s.out,
		Seeks: ps.Seeks, BytesRead: ps.BytesRead, CacheLines: ps.CacheLines,
	}
	if s.dev.Pricing == cost.PricingCache {
		st.SimTime = float64(ps.CacheLines) * s.dev.MissLatency
	} else {
		st.SimTime = s.dev.SeekTime*float64(ps.Seeks) + float64(ps.BytesRead)/s.dev.ReadBandwidth
	}
	return st
}

// Name renders the leaf with its column group.
func (s *VecScan) Name() string { return "scan" + s.buf.attrs.String() }

// VecSelect is the vectorized σ: the predicate is evaluated over the
// predicate column where it lies on the page, run by run, into the selection
// vector — no row movement, no per-row pulls, no call and no branch per row
// (Pred.filterRun). Build pushes it directly above the leaf that stores the
// predicate's attribute, below any join, so non-matching rows never cost a
// reconstruction, and binds it to that leaf's view and the column's place
// in the row once. It is a plan's only σ, so every batch reaches it whole:
// every slot counts in, every surviving slot counts out. The vector lives
// in a selMemo: its own, or the one RunGroup gives every σ of a group,
// where the first σ to see a batch filters it and the others take its
// vector.
type VecSelect struct {
	child VecOperator
	pred  Pred
	v     *view    // the view of the leaf storing pred.Attr
	off   int      // where pred.Attr lies in that leaf's rows
	memo  *selMemo // nil until the first batch or RunGroup sets it
	in    int64
	out   int64
}

// newVecSelect filters child's batches on pred, reading the predicate's
// column off leaf's pages: the leaf it sits directly above in a plan, and
// in any case the one storing pred.Attr.
func newVecSelect(child VecOperator, leaf *VecScan, pred Pred) *VecSelect {
	return &VecSelect{child: child, pred: pred, v: &leaf.view, off: leaf.buf.bind.loc[pred.Attr].Off}
}

// NextBatch pulls one batch and filters it into the memo's buffer, or takes
// the selection the memo recorded for the same rows.
func (s *VecSelect) NextBatch() (*Batch, error) {
	b, err := s.child.NextBatch()
	if b == nil || err != nil {
		return nil, err
	}
	if s.memo == nil {
		s.memo = new(selMemo)
	}
	m := s.memo
	if m.n != b.n || m.base != b.Base {
		sel, k := m.grow(b.n), 0
		for ri := range s.v.runs {
			k = s.pred.filterRun(&s.v.runs[ri], s.v.rowSize, s.off, sel, k)
		}
		m.base, m.n, m.sel = b.Base, b.n, sel[:k]
	}
	b.sel = m.sel
	s.in += int64(b.n)
	s.out += int64(len(b.sel))
	return b, nil
}

// Stats reports the selection's row flow; σ does no I/O.
func (s *VecSelect) Stats() OpStats {
	return OpStats{Op: "select", Name: s.Name(), RowsIn: s.in, RowsOut: s.out}
}

// Name renders the predicate, e.g. "σ(a10<1263)".
func (s *VecSelect) Name() string {
	var b [32]byte
	return string(append(s.pred.appendTo(append(b[:0], "σ("...)), ')'))
}

// VecReconJoin is the ⋈: the tuple-reconstruction join that stitches a
// query's attributes back together across vertical partitions. Because
// every leaf emits consecutive row IDs in identically-sized chunks, chunk k
// of every child covers the same ID range — a merge on row ID collapses
// into aligning chunks. The output batch carries no bytes at all: it shares
// its children's binding, which already places every attribute in the view
// of the leaf storing it, and takes the selection vector of its one σ
// child (a plan holds at most one σ; the other children pass every slot);
// one reconstruction join is counted per surviving row per partition
// beyond the first (the paper's counting). The common-granularity rule —
// every referenced partition is read in full even under a selective plan,
// so physical cost stays the cost model's full-scan charge — is implicit:
// every child is pulled to end of stream no matter what the selection
// discards.
type VecReconJoin struct {
	children []VecOperator
	out      Batch
	in       int64
	emitted  int64
	joins    int64
	done     bool
}

// newVecReconJoin merges the children's batch streams into batches carrying
// attrs, the union of theirs, through their binding. Children must carry
// disjoint attribute sets (vertical partitions do by construction).
func newVecReconJoin(children []VecOperator, bind *binding, attrs attrset.Set) *VecReconJoin {
	return &VecReconJoin{children: children, out: Batch{attrs: attrs, bind: bind}}
}

// NextBatch aligns one chunk across every child.
func (j *VecReconJoin) NextBatch() (*Batch, error) {
	if j.done {
		return nil, nil
	}
	var sel []int32 // nil = every slot survives
	first := true
	ended := 0
	for _, c := range j.children {
		b, err := c.NextBatch()
		if err != nil {
			return nil, err
		}
		if b == nil {
			ended++
			continue
		}
		j.in += int64(b.live())
		if first {
			j.out.Base, j.out.n = b.Base, b.n
			first = false
		} else if b.Base != j.out.Base || b.n != j.out.n {
			return nil, fmt.Errorf("operator: join children out of chunk alignment (base %d/%d rows %d/%d)",
				b.Base, j.out.Base, b.n, j.out.n)
		}
		if b.sel != nil {
			sel = b.sel
		}
	}
	if ended > 0 {
		// Same-sized chunks over the same row count end together; a straggler
		// would mean the alignment invariant broke upstream.
		if ended != len(j.children) {
			return nil, fmt.Errorf("operator: join children ended out of step (%d of %d)", ended, len(j.children))
		}
		j.done = true
		return nil, nil
	}
	j.out.sel = sel
	live := j.out.live()
	j.emitted += int64(live)
	j.joins += int64(live) * int64(len(j.children)-1)
	return &j.out, nil
}

// Stats reports the merge's row flow and reconstruction count.
func (j *VecReconJoin) Stats() OpStats {
	return OpStats{Op: "join", Name: j.Name(), RowsIn: j.in, RowsOut: j.emitted, ReconJoins: j.joins}
}

// Name renders the join.
func (j *VecReconJoin) Name() string { return "⋈" }

// VecProject is the π at every pipeline's root: the projection onto attrs
// and its row digest (storage/digest.go, the one checksum definition), so
// the checksum stays layout- and batch-size-invariant. It is the pipeline's
// sink rather than a stream: RunGroup pulls each batch through its child
// and sums the surviving rows' query columns, together with the other
// members of its group (groupDigest), then accounts the batch here; the
// group sets h at end of stream. It also records per-batch fill ratios
// (surviving rows over batch capacity), the serving layer's
// batching-efficiency signal.
type VecProject struct {
	child VecOperator
	attrs attrset.Set
	cols  []int // attrs, ascending
	h     uint64
	rows  int64
	cap   int
	fills []float64
}

// newVecProject projects child onto attrs; cap is the pipeline batch size
// the fill ratios are measured against.
func newVecProject(child VecOperator, attrs attrset.Set, cap int) *VecProject {
	return &VecProject{child: child, attrs: attrs, cols: attrs.Attrs(), h: storage.ChecksumSeed, cap: cap}
}

// account records one digested batch's row flow and fill ratio.
func (p *VecProject) account(b *Batch) {
	live := b.live()
	p.rows += int64(live)
	p.fills = append(p.fills, float64(live)/float64(p.cap))
}

// Checksum returns the digest of everything projected so far.
func (p *VecProject) Checksum() uint64 { return p.h }

// FillRatios returns the per-batch fill ratios observed so far.
func (p *VecProject) FillRatios() []float64 { return p.fills }

// Stats reports the projection's row flow.
func (p *VecProject) Stats() OpStats {
	return OpStats{Op: "project", Name: p.Name(), RowsIn: p.rows, RowsOut: p.rows}
}

// Name renders the projection with its attribute set.
func (p *VecProject) Name() string { return "π" + p.attrs.String() }
