package operator

import (
	"fmt"

	"knives/internal/attrset"
	"knives/internal/cost"
	"knives/internal/schema"
	"knives/internal/storage"
)

// The reference vector pipeline: the copying implementation the production
// path replaced, kept verbatim as its oracle. A leaf TRANSPOSES every page
// run into per-attribute column buffers the batch owns (refScan.FillInto),
// σ evaluates σ's definition (Pred.match) per row, ⋈ aliases column slices,
// and π digests the column buffers row by row with the row digest spelled
// out byte by byte — no views, no page lifetime to get wrong, no
// branchless comparison, no word loads. It shares nothing with vector.go
// but the cursors and OpStats, so a bug in how the production path walks
// runs, sums columns or evaluates the predicate cannot hide in both.
// refRun is buildVector + runVector over these operators.

// refBatch is one chunk of up to cap consecutive rows flowing through the
// reference pipeline. Rows occupy slots 0..n-1; slot i holds row Base+i of
// the stored table, and attribute a's value lives at cols[a][i*w:(i+1)*w].
// A nil selection vector means every slot survives; a non-nil one lists the
// surviving slots in ascending order (the plan's σ writes it). Leaf batches
// own their column buffers; a join's output batch aliases its children's.
type refBatch struct {
	// Base is the table row ID of slot 0; leaves emit consecutive IDs, so
	// slot i is row Base+i.
	Base int64

	n     int
	attrs attrset.Set
	sel   []int32
	cols  [attrset.MaxAttrs][]byte
	width [attrset.MaxAttrs]int

	selBuf []int32 // σ's backing storage, cap == batch capacity
}

// newRefBatch allocates the reusable buffers for one leaf's column group.
func newRefBatch(s *refScan) *refBatch {
	b := &refBatch{attrs: s.attrs, selBuf: make([]int32, 0, s.size)}
	for _, a := range s.cols {
		b.width[a] = s.width[a]
		b.cols[a] = make([]byte, s.size*s.width[a])
	}
	return b
}

// live returns how many of the batch's slots survive its selection.
func (b *refBatch) live() int {
	if b.sel != nil {
		return len(b.sel)
	}
	return b.n
}

// refOperator is the reference pipeline's operator interface.
type refOperator interface {
	NextBatch() (*refBatch, error)
	Stats() OpStats
	Name() string
}

// refScan is the copying leaf: it fills batches from a storage.PartCursor in
// page-sized runs (NextRows), transposing each column into the batch's own
// buffers — so it never looks at a page after the NextRows call that
// returned it, and needs no Hold. The cursor stream, and therefore every
// physical measurement, is identical to the row scan's.
type refScan struct {
	c     *storage.PartCursor
	dev   cost.Device
	attrs attrset.Set
	cols  []int
	offs  [attrset.MaxAttrs]int
	width [attrset.MaxAttrs]int
	size  int
	buf   *refBatch
	out   int64
}

// newRefScan opens a vectorized leaf over cur, a partition of tbl, with the
// given batch size. It places the partition's columns in its rows itself,
// from the schema: in attribute order, each value right after the one
// before, as the engine lays a row out.
func newRefScan(tbl *schema.Table, cur *storage.PartCursor, dev cost.Device, size int) *refScan {
	s := &refScan{c: cur, dev: dev, attrs: cur.Attrs(), cols: cur.Attrs().Attrs(), size: size}
	off := 0
	for _, a := range s.cols {
		s.offs[a], s.width[a] = off, tbl.Columns[a].Size
		off += s.width[a]
	}
	return s
}

// FillInto fills b from the cursor: up to the batch size in page-sized runs,
// strided column copies, no per-row calls. b.n == 0 signals end of stream.
func (s *refScan) FillInto(b *refBatch) error {
	b.Base = s.out
	b.sel = nil
	rs := s.c.RowSize()
	filled := 0
	for filled < s.size {
		page, start, n, err := s.c.NextRows(s.size - filled)
		if err != nil {
			return err
		}
		if n == 0 {
			break
		}
		src := page[start*rs:]
		for _, a := range s.cols {
			w, off := s.width[a], s.offs[a]
			dst := b.cols[a][filled*w:]
			switch w {
			case 4: // the u32 int/date columns dominating the benchmarks
				for i := 0; i < n; i++ {
					so, do := i*rs+off, i*4
					dst[do] = src[so]
					dst[do+1] = src[so+1]
					dst[do+2] = src[so+2]
					dst[do+3] = src[so+3]
				}
			default:
				for i := 0; i < n; i++ {
					so := i*rs + off
					copy(dst[i*w:(i+1)*w], src[so:so+w])
				}
			}
		}
		filled += n
	}
	b.n = filled
	s.out += int64(filled)
	return nil
}

// NextBatch fills the scan's own reusable batch.
func (s *refScan) NextBatch() (*refBatch, error) {
	if s.buf == nil {
		s.buf = newRefBatch(s)
	}
	if err := s.FillInto(s.buf); err != nil {
		return nil, err
	}
	if s.buf.n == 0 {
		return nil, nil
	}
	return s.buf, nil
}

// PartStats returns the leaf's physical accounting in the engine's
// per-partition form.
func (s *refScan) PartStats() storage.PartScanStats { return s.c.Stats() }

// Stats prices the leaf exactly as the row Scan does.
func (s *refScan) Stats() OpStats {
	ps := s.c.Stats()
	st := OpStats{
		Op: "scan", Name: "scan" + s.attrs.String(), RowsOut: s.out,
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
func (s *refScan) Name() string { return "scan" + s.attrs.String() }

// refSelect is the vectorized σ: the predicate is evaluated over the batch's
// predicate column into the selection vector — no row movement, no
// per-row pulls. It sits directly on a leaf, so every slot reaches it: all
// count in, every surviving slot counts out, as in the row σ.
type refSelect struct {
	child refOperator
	pred  Pred
	in    int64
	out   int64
}

// newRefSelect wraps child in the predicate.
func newRefSelect(child refOperator, pred Pred) *refSelect {
	return &refSelect{child: child, pred: pred}
}

// Apply evaluates the predicate into b's selection vector, one match per
// row — the definition filterRun must agree with.
func (s *refSelect) Apply(b *refBatch) {
	w := b.width[s.pred.Attr]
	col := b.cols[s.pred.Attr]
	sel := b.selBuf[:0]
	for i := 0; i < b.n; i++ {
		if s.pred.match(col[i*w : (i+1)*w]) {
			sel = append(sel, int32(i))
		}
	}
	s.in += int64(b.n)
	b.selBuf = sel
	b.sel = sel
	s.out += int64(len(sel))
}

// NextBatch pulls one batch and filters it.
func (s *refSelect) NextBatch() (*refBatch, error) {
	b, err := s.child.NextBatch()
	if b == nil || err != nil {
		return nil, err
	}
	s.Apply(b)
	return b, nil
}

// Stats reports the selection's row flow; σ does no I/O.
func (s *refSelect) Stats() OpStats {
	return OpStats{Op: "select", Name: s.Name(), RowsIn: s.in, RowsOut: s.out}
}

// Name renders the predicate.
func (s *refSelect) Name() string { return "σ(" + s.pred.String() + ")" }

// refJoin is the vectorized ⋈. Because every leaf emits consecutive
// row IDs in identically-sized chunks, chunk k of every child covers the
// same ID range — the row path's ID merge collapses into aligning chunks.
// The output batch carries no copies at all: its column slices alias the
// children's buffers, and its selection vector is the one σ child's. The
// common-granularity drain is implicit: every child is pulled to end of
// stream no matter what the selection discards.
type refJoin struct {
	children []refOperator
	out      refBatch
	in       int64
	emitted  int64
	joins    int64
	done     bool
}

// newRefJoin merges the children's batch streams. Children must carry
// disjoint attribute sets (vertical partitions do by construction).
func newRefJoin(children []refOperator) *refJoin {
	return &refJoin{children: children}
}

// NextBatch aligns one chunk across every child.
func (j *refJoin) NextBatch() (*refBatch, error) {
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
		j.out.attrs = j.out.attrs.Union(b.attrs)
		for _, a := range b.attrs.Attrs() {
			j.out.cols[a] = b.cols[a]
			j.out.width[a] = b.width[a]
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
func (j *refJoin) Stats() OpStats {
	return OpStats{Op: "join", Name: j.Name(), RowsIn: j.in, RowsOut: j.emitted, ReconJoins: j.joins}
}

// Name renders the join.
func (j *refJoin) Name() string { return "⋈" }

// The row digest, spelled out byte by byte — the definition production code
// (storage/digest.go) must equal, sharing nothing with it: its own
// constants, no word loads, no width cases, no running key.
//
//	refStep(h, w) = x ^ x>>32, x = (h ^ w) * 0xd6e8feb86659fd93
//	cell (i, a)   = refStep from (64·i + a) * 0x9e3779b97f4a7c15 over the
//	                value cut into 8-byte little-endian words, the last one
//	                zero-extended
//	checksum      = 0x6a09e667f3bcc908 + Σ over the surviving rows of
//	                (0xbb67ae8584caa73b + Σ over the query's columns of the
//	                cell), mod 2^64
func refStep(h, w uint64) uint64 {
	x := (h ^ w) * 0xd6e8feb86659fd93
	return x ^ x>>32
}

// refCell hashes row i's value v of attribute a: byte j of the value is
// byte j%8 of word j/8.
func refCell(i int64, a int, v []byte) uint64 {
	h := (uint64(i)*64 + uint64(a)) * 0x9e3779b97f4a7c15
	for at := 0; at < len(v); at += 8 {
		var w uint64
		for j := at; j < at+8 && j < len(v); j++ {
			w |= uint64(v[j]) << (8 * uint(j-at))
		}
		h = refStep(h, w)
	}
	return h
}

// refProject is the vectorized π: one loop hashes every surviving row's
// query cells and adds them, and the row's own term, into the checksum —
// the definition above, row at a time, a column-less row included. It also records per-batch fill ratios (surviving rows over batch
// capacity), the serving layer's batching-efficiency signal.
type refProject struct {
	child refOperator
	attrs attrset.Set
	cols  []int
	h     uint64
	rows  int64
	cap   int
	fills []float64
}

// newRefProject projects child onto attrs; cap is the pipeline batch size
// the fill ratios are measured against.
func newRefProject(child refOperator, attrs attrset.Set, cap int) *refProject {
	return &refProject{child: child, attrs: attrs, cols: attrs.Attrs(), h: 0x6a09e667f3bcc908, cap: cap}
}

// NextBatch digests one batch's surviving rows.
func (p *refProject) NextBatch() (*refBatch, error) {
	b, err := p.child.NextBatch()
	if b == nil || err != nil {
		return nil, err
	}
	digest := func(i int) {
		p.h += 0xbb67ae8584caa73b
		for _, a := range p.cols {
			w := b.width[a]
			p.h += refCell(b.Base+int64(i), a, b.cols[a][i*w:(i+1)*w])
		}
	}
	if b.sel == nil {
		for i := 0; i < b.n; i++ {
			digest(i)
		}
	} else {
		for _, s := range b.sel {
			digest(int(s))
		}
	}
	p.rows += int64(b.live())
	p.fills = append(p.fills, float64(b.live())/float64(p.cap))
	return b, nil
}

// Checksum returns the digest of everything projected so far.
func (p *refProject) Checksum() uint64 { return p.h }

// FillRatios returns the per-batch fill ratios observed so far.
func (p *refProject) FillRatios() []float64 { return p.fills }

// Stats reports the projection's row flow.
func (p *refProject) Stats() OpStats {
	return OpStats{Op: "project", Name: p.Name(), RowsIn: p.rows, RowsOut: p.rows}
}

// Name renders the projection with its attribute set.
func (p *refProject) Name() string { return "π" + p.attrs.String() }

// refRun plans and runs query (+ optional pred) over snap exactly as
// BuildExec/RunFunc do in vector mode, on the reference operators.
func refRun(snap *storage.Snapshot, dev cost.Device, query attrset.Set, pred *Pred, size int, fn func(r *Row) error) (Result, error) {
	var res Result
	all := snap.Table().AllAttrs()
	query = query.Intersect(all)
	needed := query
	if pred != nil {
		needed = needed.Add(pred.Attr)
	}
	if needed.IsEmpty() {
		// The empty result's checksum is the seed.
		res.Checksum, res.Stats.Checksum = 0x6a09e667f3bcc908, 0x6a09e667f3bcc908
		return res, nil
	}
	var refs []int
	var totalRowSize int64
	for i := 0; i < snap.NumParts(); i++ {
		if snap.PartAttrs(i).Overlaps(needed) {
			refs = append(refs, i)
			totalRowSize += int64(snap.PartRowSize(i))
		}
	}
	var leaves []*refScan
	var ops, children []refOperator
	for _, i := range refs {
		cur, err := snap.Cursor(i, dev, totalRowSize)
		if err != nil {
			return res, err
		}
		leaf := newRefScan(snap.Table(), cur, dev, size)
		leaves = append(leaves, leaf)
		ops = append(ops, leaf)
		var child refOperator = leaf
		if pred != nil && snap.PartAttrs(i).Has(pred.Attr) {
			child = newRefSelect(leaf, *pred)
			ops = append(ops, child)
		}
		children = append(children, child)
	}
	root := children[0]
	var join *refJoin
	if len(children) > 1 {
		join = newRefJoin(children)
		ops = append(ops, join)
		root = join
	}
	proj := newRefProject(root, query, size)
	ops = append(ops, proj)

	var row Row
	row.Attrs = query
	qcols := query.Attrs()
	for {
		b, err := proj.NextBatch()
		if err != nil {
			return res, err
		}
		if b == nil {
			break
		}
		res.Rows += int64(b.live())
		if fn == nil {
			continue
		}
		emit := func(slot int) error {
			row.ID = b.Base + int64(slot)
			for _, a := range qcols {
				w := b.width[a]
				row.vals[a] = b.cols[a][slot*w : (slot+1)*w]
			}
			return fn(&row)
		}
		if b.sel == nil {
			for i := 0; i < b.n; i++ {
				if err := emit(i); err != nil {
					return res, err
				}
			}
		} else {
			for _, s := range b.sel {
				if err := emit(int(s)); err != nil {
					return res, err
				}
			}
		}
	}

	st := &res.Stats
	for _, leaf := range leaves {
		ps := leaf.PartStats()
		st.Parts = append(st.Parts, ps)
		st.Seeks += ps.Seeks
		st.BytesRead += ps.BytesRead
		st.CacheLines += ps.CacheLines
		st.SimTime += dev.SeekTime*float64(ps.Seeks) +
			float64(ps.BytesRead)/dev.ReadBandwidth
	}
	st.Tuples = res.Rows
	if join != nil {
		st.ReconJoins = join.Stats().ReconJoins
	}
	st.Checksum = proj.Checksum()
	res.Checksum = st.Checksum
	for _, op := range ops {
		res.Ops = append(res.Ops, op.Stats())
	}
	res.FillRatios = proj.FillRatios()
	return res, nil
}
