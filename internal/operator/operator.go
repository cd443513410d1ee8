package operator

import (
	"knives/internal/attrset"
	"knives/internal/cost"
	"knives/internal/storage"
)

// Row is one (possibly partial) tuple flowing through a pipeline: the
// attributes it carries and, per attribute, the raw column bytes. Rows are
// owned by the operator that returned them and their column slices alias
// the leaf cursors' page buffers — both are valid only until the next
// Next call on that operator.
type Row struct {
	// ID is the tuple's row index in the stored table; the reconstruction
	// join aligns partition streams on it.
	ID int64
	// Attrs is the set of attributes this row carries values for.
	Attrs attrset.Set

	vals [attrset.MaxAttrs][]byte
}

// Col returns the row's bytes for attribute a, or nil when the row does
// not carry it.
func (r *Row) Col(a int) []byte {
	if !r.Attrs.Has(a) {
		return nil
	}
	return r.vals[a]
}

// Operator is a pull-based (Volcano-style) row iterator. Next returns the
// stream's next row, or (nil, nil) at end of stream; once it has returned
// nil it keeps returning nil. Stats may be read at any point and reports
// the work the operator has done SO FAR — after the stream is drained it
// is the operator's final accounting.
type Operator interface {
	// Next pulls the next row of the stream; nil means end of stream.
	Next() (*Row, error)
	// Stats reports the operator's own work (not its children's).
	Stats() OpStats
	// Name renders the operator for plan displays, e.g. "σ(a4<1263)".
	Name() string
}

// OpStats is one operator's own share of a pipeline's work. Leaf scans
// carry the physical terms (seeks, bytes, cache lines, seconds); the
// operators above them move slice headers and charge only logical counts.
type OpStats struct {
	// Op is the operator kind: "scan", "select", "join", or "project".
	Op string `json:"op"`
	// Name is the display form, e.g. "scan{0,4}" or "σ(a10<1263)".
	Name string `json:"name"`
	// RowsIn counts rows pulled from children (0 for leaves).
	RowsIn int64 `json:"rows_in"`
	// RowsOut counts rows this operator emitted.
	RowsOut int64 `json:"rows_out"`
	// Seeks, BytesRead, and CacheLines are the leaf's physical reads.
	Seeks      int64 `json:"seeks,omitempty"`
	BytesRead  int64 `json:"bytes_read,omitempty"`
	CacheLines int64 `json:"cache_lines,omitempty"`
	// ReconJoins counts tuple reconstructions (join operators only).
	ReconJoins int64 `json:"recon_joins,omitempty"`
	// SimTime is the seconds the device charges this operator under its
	// pricing discipline — the cost model's per-partition term for leaves,
	// zero above them.
	SimTime float64 `json:"sim_time"`
}

// Scan is the leaf operator: it streams one vertical partition of a
// pinned epoch through a storage.PartCursor, emitting one partial row per
// stored row with consecutive IDs from 0. All physical I/O (and therefore
// all cost) in a pipeline happens here, with the engine's own buffer,
// seek, and page accounting.
type Scan struct {
	c    *storage.PartCursor
	dev  cost.Device
	cols []int
	row  Row
	out  int64
}

// NewScan opens a leaf over cur, pricing its reads against dev.
func NewScan(cur *storage.PartCursor, dev cost.Device) *Scan {
	s := &Scan{c: cur, dev: dev, cols: cur.Attrs().Attrs()}
	s.row.Attrs = cur.Attrs()
	return s
}

// Next advances the cursor one row.
func (s *Scan) Next() (*Row, error) {
	ok, err := s.c.Next()
	if err != nil || !ok {
		return nil, err
	}
	s.row.ID = s.out
	s.out++
	for _, a := range s.cols {
		s.row.vals[a] = s.c.Col(a)
	}
	return &s.row, nil
}

// PartStats returns the leaf's physical accounting in the engine's
// per-partition form.
func (s *Scan) PartStats() storage.PartScanStats { return s.c.Stats() }

// Stats prices the leaf's reads (leafStats).
func (s *Scan) Stats() OpStats { return leafStats(s.c, s.dev, s.out) }

// leafStats prices a leaf's reads — row or vector, the cursor is the same —
// under its device's discipline: seek plus scan time for block devices,
// cache-line transfers times miss latency for cache devices — exactly the
// cost model's per-partition term.
func leafStats(c *storage.PartCursor, dev cost.Device, out int64) OpStats {
	ps := c.Stats()
	st := OpStats{
		Op: "scan", Name: "scan" + ps.Attrs.String(), RowsOut: out,
		Seeks: ps.Seeks, BytesRead: ps.BytesRead, CacheLines: ps.CacheLines,
	}
	if dev.Pricing == cost.PricingCache {
		st.SimTime = float64(ps.CacheLines) * dev.MissLatency
	} else {
		st.SimTime = dev.SeekTime*float64(ps.Seeks) + float64(ps.BytesRead)/dev.ReadBandwidth
	}
	return st
}

// Name renders the leaf with its column group.
func (s *Scan) Name() string { return "scan" + s.row.Attrs.String() }

// Select is the σ operator: it pulls from its child and emits only rows
// its predicate matches. Build pushes it directly above the leaf that
// stores the predicate's attribute, below any join — the classic
// selection pushdown — so non-matching rows never cost a reconstruction.
type Select struct {
	child Operator
	pred  Pred
	in    int64
	out   int64
}

// NewSelect wraps child in the predicate.
func NewSelect(child Operator, pred Pred) *Select {
	return &Select{child: child, pred: pred}
}

// Next pulls until a row matches.
func (s *Select) Next() (*Row, error) {
	for {
		r, err := s.child.Next()
		if r == nil || err != nil {
			return nil, err
		}
		s.in++
		if s.pred.Match(r.Col(s.pred.Attr)) {
			s.out++
			return r, nil
		}
	}
}

// Stats reports the selection's row flow; σ does no I/O.
func (s *Select) Stats() OpStats {
	return OpStats{Op: "select", Name: s.Name(), RowsIn: s.in, RowsOut: s.out}
}

// Name renders the predicate.
func (s *Select) Name() string { return "σ(" + s.pred.Name + ")" }

// ReconJoin is the ⋈ operator: the tuple-reconstruction join that stitches
// a query's attributes back together across vertical partitions by merging
// its children's streams on row ID. Children emit IDs in increasing order
// (leaves are sequential scans; σ preserves order), so the join is a pure
// merge: align every child on the largest current ID, emit the stitched
// row, advance.
//
// When any child's stream ends, the join DRAINS every other child to end
// of stream before reporting its own end. This is the common-granularity
// rule made operational: every referenced partition is read in full even
// under a selective plan, so the pipeline's physical cost stays exactly
// the cost model's full-scan charge no matter what σ discards.
type ReconJoin struct {
	children []Operator
	cur      []*Row
	out      Row
	colsOf   [][]int
	in       int64
	emitted  int64
	joins    int64
	done     bool
}

// NewReconJoin merges the children's streams on row ID. Children must
// carry disjoint attribute sets (vertical partitions do by construction).
func NewReconJoin(children []Operator) *ReconJoin {
	return &ReconJoin{children: children, cur: make([]*Row, len(children))}
}

// pull advances child i, counting the row consumed.
func (j *ReconJoin) pull(i int) (*Row, error) {
	r, err := j.children[i].Next()
	if err != nil {
		return nil, err
	}
	if r != nil {
		j.in++
	}
	return r, nil
}

// finish drains every child to end of stream (see the type comment) and
// latches the join closed.
func (j *ReconJoin) finish() error {
	j.done = true
	for i := range j.children {
		for {
			r, err := j.pull(i)
			if err != nil {
				return err
			}
			if r == nil {
				break
			}
		}
	}
	return nil
}

// Next merges one aligned row.
func (j *ReconJoin) Next() (*Row, error) {
	if j.done {
		return nil, nil
	}
	// Advance every child past the previously emitted row (or to its
	// first row on the initial call).
	for i := range j.children {
		r, err := j.pull(i)
		if err != nil {
			return nil, err
		}
		if r == nil {
			return nil, j.finish()
		}
		j.cur[i] = r
	}
	// Align all children on the largest current ID. A child that
	// overshoots (its next matching row is further on) raises the bar and
	// the alignment restarts from the new maximum.
	for {
		max := j.cur[0].ID
		for _, r := range j.cur[1:] {
			if r.ID > max {
				max = r.ID
			}
		}
		aligned := true
		for i := range j.cur {
			for j.cur[i].ID < max {
				r, err := j.pull(i)
				if err != nil {
					return nil, err
				}
				if r == nil {
					return nil, j.finish()
				}
				j.cur[i] = r
			}
			if j.cur[i].ID > max {
				aligned = false
			}
		}
		if aligned {
			break
		}
	}
	// Stitch the aligned partials into one row: one reconstruction join
	// per partition beyond the first, the engine's (and the paper's)
	// counting.
	if j.out.Attrs.IsEmpty() {
		j.colsOf = make([][]int, len(j.cur))
		for i, r := range j.cur {
			j.out.Attrs = j.out.Attrs.Union(r.Attrs)
			j.colsOf[i] = r.Attrs.Attrs()
		}
	}
	j.out.ID = j.cur[0].ID
	for i, r := range j.cur {
		for _, a := range j.colsOf[i] {
			j.out.vals[a] = r.vals[a]
		}
	}
	j.emitted++
	j.joins += int64(len(j.children) - 1)
	return &j.out, nil
}

// Stats reports the merge's row flow and reconstruction count.
func (j *ReconJoin) Stats() OpStats {
	return OpStats{Op: "join", Name: j.Name(), RowsIn: j.in, RowsOut: j.emitted, ReconJoins: j.joins}
}

// Name renders the join with its width.
func (j *ReconJoin) Name() string { return "⋈" }

// Project is the π operator: it restricts rows to the query's attributes
// and folds them into the row digest — the one checksum definition, in
// storage/digest.go, that Engine.Scan and the vector π compute too — so a
// pipeline's result checksum is directly comparable to a monolithic scan's.
type Project struct {
	child Operator
	attrs attrset.Set
	cols  []int
	h     uint64
	out   Row
	in    int64
}

// NewProject projects child onto attrs.
func NewProject(child Operator, attrs attrset.Set) *Project {
	p := &Project{child: child, attrs: attrs, cols: attrs.Attrs(), h: storage.ChecksumSeed}
	p.out.Attrs = attrs
	return p
}

// Next projects one row and digests it.
func (p *Project) Next() (*Row, error) {
	r, err := p.child.Next()
	if r == nil || err != nil {
		return nil, err
	}
	p.in++
	rh := storage.RowSeed
	for _, a := range p.cols {
		b := r.Col(a)
		rh = storage.FoldValue(rh, b)
		p.out.vals[a] = b
	}
	p.h = storage.FoldRow(p.h, rh)
	p.out.ID = r.ID
	return &p.out, nil
}

// Checksum returns the digest of everything projected so far.
func (p *Project) Checksum() uint64 { return p.h }

// Stats reports the projection's row flow.
func (p *Project) Stats() OpStats {
	return OpStats{Op: "project", Name: p.Name(), RowsIn: p.in, RowsOut: p.in}
}

// Name renders the projection with its attribute set.
func (p *Project) Name() string { return "π" + p.attrs.String() }
