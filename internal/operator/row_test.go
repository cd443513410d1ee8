package operator

import (
	"encoding/binary"
	"strings"
	"testing"

	"knives/internal/algorithms"
	"knives/internal/attrset"
	"knives/internal/cost"
	"knives/internal/partition"
	"knives/internal/schema"
	"knives/internal/storage"
)

// The row-at-a-time Volcano pipeline: the executor the batch-at-a-time one
// (vector.go) replaced in production, kept verbatim as its oracle. One row
// per interface call, one cursor Next per row, σ through Pred.match (σ's
// definition, below), ⋈ as a merge on row ID, π through storage.Cell.
// It shares the cursors, Row, OpStats and the digest's per-cell primitive
// with production and nothing of how batches are cut, filtered, aligned or
// summed. buildRow plans exactly as BuildExec does;
// rowPipeline.RunFunc aggregates with its own copy of the charge.

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

// Stats prices the leaf's reads under its device's discipline, spelled out
// rather than shared with the production leaf.
func (s *Scan) Stats() OpStats {
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
		if s.pred.match(r.Col(s.pred.Attr)) {
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
func (s *Select) Name() string { return "σ(" + s.pred.String() + ")" }

// match is σ's definition, one row at a time: the attribute's first four
// column bytes, read as a little-endian u32, below the bound. The oracles
// evaluate it per row; production's branchless Pred.filterRun must agree.
func (p Pred) match(col []byte) bool { return binary.LittleEndian.Uint32(col) < p.Bound }

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
// and adds their cells into the row digest — the one checksum definition, in
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
	p.h += storage.RowSeed
	for _, a := range p.cols {
		b := r.Col(a)
		p.h += storage.Cell(r.ID, a, b)
		p.out.vals[a] = b
	}
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

// rowPipeline is a built row-at-a-time plan, ready to run once.
type rowPipeline struct {
	dev    cost.Device
	root   Operator
	proj   *Project
	join   *ReconJoin
	leaves []*Scan
	ops    []Operator // bottom-up: leaves (canonical order), σ, ⋈, π
}

// buildRow plans query (+ optional pred) over snap exactly as BuildExec does,
// from row operators.
func buildRow(snap *storage.Snapshot, dev cost.Device, query attrset.Set, pred *Pred) (*rowPipeline, error) {
	if err := dev.Validate(); err != nil {
		return nil, err
	}
	all := snap.Table().AllAttrs()
	query = query.Intersect(all)
	needed := query
	if pred != nil {
		needed = needed.Add(pred.Attr)
	}
	p := &rowPipeline{dev: dev}
	if needed.IsEmpty() {
		return p, nil
	}
	var refs []int
	var totalRowSize int64
	for i := 0; i < snap.NumParts(); i++ {
		if snap.PartAttrs(i).Overlaps(needed) {
			refs = append(refs, i)
			totalRowSize += int64(snap.PartRowSize(i))
		}
	}
	children := make([]Operator, 0, len(refs))
	for _, i := range refs {
		cur, err := snap.Cursor(i, dev, totalRowSize)
		if err != nil {
			return nil, err
		}
		leaf := NewScan(cur, dev)
		p.leaves = append(p.leaves, leaf)
		p.ops = append(p.ops, leaf)
		var child Operator = leaf
		if pred != nil && snap.PartAttrs(i).Has(pred.Attr) {
			sel := NewSelect(leaf, *pred)
			p.ops = append(p.ops, sel)
			child = sel
		}
		children = append(children, child)
	}
	root := children[0]
	if len(children) > 1 {
		p.join = NewReconJoin(children)
		p.ops = append(p.ops, p.join)
		root = p.join
	}
	p.proj = NewProject(root, query)
	p.ops = append(p.ops, p.proj)
	p.root = p.proj
	return p, nil
}

// Describe renders the plan bottom-up.
func (p *rowPipeline) Describe() string {
	if p.root == nil {
		return "(empty)"
	}
	var names []string
	for _, op := range p.ops {
		names = append(names, op.Name())
	}
	return strings.Join(names, " → ")
}

// Run drives the plan to end of stream and aggregates.
func (p *rowPipeline) Run() (Result, error) { return p.RunFunc(nil) }

// RunFunc drives the plan to end of stream, invoking fn (when non-nil) on
// every result row, and aggregates the leaves per partition in canonical
// order with the cost model's seek+scan expression.
func (p *rowPipeline) RunFunc(fn func(r *Row) error) (Result, error) {
	var res Result
	if p.root == nil {
		res.Checksum, res.Stats.Checksum = storage.ChecksumSeed, storage.ChecksumSeed
		return res, nil
	}
	for {
		r, err := p.root.Next()
		if err != nil {
			return res, err
		}
		if r == nil {
			break
		}
		res.Rows++
		if fn != nil {
			if err := fn(r); err != nil {
				return res, err
			}
		}
	}
	st := &res.Stats
	for _, leaf := range p.leaves {
		ps := leaf.PartStats()
		st.Parts = append(st.Parts, ps)
		st.Seeks += ps.Seeks
		st.BytesRead += ps.BytesRead
		st.CacheLines += ps.CacheLines
		st.SimTime += p.dev.SeekTime*float64(ps.Seeks) +
			float64(ps.BytesRead)/p.dev.ReadBandwidth
	}
	st.Tuples = res.Rows
	if p.join != nil {
		st.ReconJoins = p.join.Stats().ReconJoins
	}
	st.Checksum = p.proj.Checksum()
	res.Checksum = st.Checksum
	for _, op := range p.ops {
		res.Ops = append(res.Ops, op.Stats())
	}
	return res, nil
}

// BenchmarkOperatorPipeline times the row oracle on the workload replay's
// BenchmarkOperatorPipelineVectorized times the executor on: TPC-H lineitem,
// 20k rows, HillClimb's layout, the table's 17 queries with σ(l_shipdate <
// 1263) — so the ratio that retired the row path stays one command away:
//
//	go test ./internal/operator ./internal/replay -run '^$' -cpu 1 \
//	    -bench 'OperatorPipeline$|OperatorPipelineVectorized$'
func BenchmarkOperatorPipeline(b *testing.B) {
	bench := schema.TPCH(10)
	tw := bench.Workload.ForTable(bench.Table("lineitem"))
	hc, err := algorithms.ByName("HillClimb")
	if err != nil {
		b.Fatal(err)
	}
	dev := cost.DefaultDisk()
	res, err := hc.Partition(tw, cost.NewHDD(dev))
	if err != nil {
		b.Fatal(err)
	}
	sample := schema.MustTable(tw.Table.Name, 20_000, tw.Table.Columns)
	e, err := storage.NewEngine(partition.Must(sample, res.Partitioning.Parts), dev, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	if err := e.Load(storage.NewGenerator(1), sample.Rows); err != nil {
		b.Fatal(err)
	}
	snap := e.Snapshot()
	pred := U32Less(sample.AttrIndex("l_shipdate"), 1263)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range tw.Queries {
			pipe, err := buildRow(snap, dev, q.Attrs, &pred)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := pipe.Run(); err != nil {
				b.Fatal(err)
			}
		}
	}
}
