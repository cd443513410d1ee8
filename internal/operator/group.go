package operator

import (
	"cmp"
	"fmt"
	"slices"

	"knives/internal/attrset"
	"knives/internal/storage"
)

// Lockstep groups. A table's workload is many pipelines over one snapshot
// under one predicate, and most of their work is the same work: every σ
// filters the same column of the same rows, and a checksum is a sum over
// cells (storage/digest.go), so a column two queries project adds the same
// total to both. RunGroup runs such pipelines batch by batch in lockstep
// and does that work once: σ once per batch, each referenced cell hashed
// once per request. Each member keeps its own cursors, operators and
// accounting, so its Result is the one it returns alone, field for field
// (FuzzGroupVsAlone).

// selMemo is σ's selection vector for the current batch, recorded under
// the batch's Base and length. In a group — one snapshot, one predicate,
// one batch size — those name the same rows for every member, so the first
// σ to see a batch filters it and every other σ takes the recorded vector.
// One buffer per group, grown to the batch's row count.
type selMemo struct {
	base int64
	n    int // rows of the recorded batch; 0: nothing recorded
	sel  []int32
	buf  []int32
}

// grow returns the buffer at length n.
func (m *selMemo) grow(n int) []int32 {
	if cap(m.buf) < n {
		m.buf = make([]int32, n)
	}
	return m.buf[:n]
}

// column is one distinct column a group's members project, and ONE
// member's view of its partition: every member's leaf over a partition of
// the shared snapshot holds the same bytes in the same page runs.
type column struct {
	v            *view
	part         int
	attr, off, w int
}

// groupDigest is π's work for a whole group: one running total per distinct
// projected column (sums, by attribute of the table) over the surviving
// rows, and the count of those rows. At end of stream each member's
// checksum is ChecksumSeed + rows·RowSeed + the totals of its columns. It
// allocates when the group forms, never per batch.
type groupDigest struct {
	cols []column // ordered by partition, then offset
	sums []uint64
	rows int64
}

// newGroupDigest lists the members' distinct projected columns, each where
// the first plan projecting it binds it. Sorted by partition, a
// partition's columns are read through the view of its first.
func newGroupDigest(members []*Pipeline) *groupDigest {
	var all attrset.Set
	for _, m := range members {
		all = all.Union(m.proj.attrs)
	}
	d := &groupDigest{cols: make([]column, 0, all.Len()), sums: make([]uint64, len(members[0].bind.loc))}
	for _, m := range members {
		for _, a := range m.proj.cols {
			if !all.Has(a) {
				continue
			}
			all = all.Remove(a)
			l := m.bind.loc[a]
			d.cols = append(d.cols, column{v: m.bind.views[l.Part], part: l.Part, attr: a, off: l.Off, w: l.Width})
		}
	}
	slices.SortFunc(d.cols, func(x, y column) int { return cmp.Or(cmp.Compare(x.part, y.part), cmp.Compare(x.off, y.off)) })
	return d
}

// digest adds one lockstep batch to the totals: b is any member's, since
// every member's batch covers the same rows under the same selection
// (lockstep checks). Each column is summed over its own partition's page
// runs, survivors only; inside a run its rows sit at a fixed stride on one
// page, and where a run ends never shows.
func (d *groupDigest) digest(b *Batch) {
	d.rows += int64(b.live())
	for i := 0; i < len(d.cols); {
		v := d.cols[i].v // the partition's columns are all read through it
		j := i + 1
		for j < len(d.cols) && d.cols[j].part == d.cols[i].part {
			j++
		}
		si := 0 // next entry of b.sel
		for ri := range v.runs {
			r := &v.runs[ri]
			var sel []int32 // the run's survivors; nil = all of it
			if b.sel != nil {
				sj, _ := slices.BinarySearch(b.sel[si:], int32(r.first+r.n))
				if sel, si = b.sel[si:si+sj], si+sj; len(sel) == 0 {
					continue
				}
			}
			row := b.Base + int64(r.first)
			for _, c := range d.cols[i:j] {
				d.sums[c.attr] += storage.SumColumn(r.rows[c.off:], v.rowSize, c.w, row, c.attr, r.n, sel, r.first)
			}
		}
		i = j
	}
}

// finish sets each member's checksum from the totals, at end of stream.
func (d *groupDigest) finish(members []*Pipeline) {
	base := storage.ChecksumSeed + uint64(d.rows)*storage.RowSeed
	for _, m := range members {
		h := base
		for _, a := range m.proj.cols {
			h += d.sums[a]
		}
		m.proj.h = h
	}
}

// RunGroup runs pipelines built over one snapshot with one predicate (the
// same *Pred, or none) and one batch size to end of stream, in lockstep on
// the calling goroutine, and returns their Results in order. Every member
// keeps its own cursors, operators and accounting — its Result is the one
// its Run would return — but the group evaluates σ once per batch and
// hashes each cell its members project once. A member whose batch
// disagrees with the others' on base, length or selection is an error,
// never a checksum. Every pipeline runs once; Run is a group of one.
func RunGroup(pipes []*Pipeline) ([]Result, error) {
	res, err := runGroup(pipes, nil)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// runGroup is RunGroup, handing fn (when non-nil, which only a group of one
// does) every result row. An error while running returns, beside it, the
// rows each member delivered before it and nothing else.
func runGroup(pipes []*Pipeline, fn func(r *Row) error) ([]Result, error) {
	if len(pipes) == 0 {
		return nil, nil
	}
	first := pipes[0]
	for _, p := range pipes {
		if p.ran {
			return nil, fmt.Errorf("operator: pipeline already ran")
		}
		if p.snap != first.snap || p.pred != first.pred || p.opts.BatchSize != first.opts.BatchSize {
			return nil, fmt.Errorf("operator: a group's pipelines must share one snapshot, one predicate and one batch size")
		}
	}
	var live []*Pipeline // members with a plan; an empty plan runs to an empty result for free
	memo := new(selMemo)
	for _, p := range pipes {
		if p.ran {
			return nil, fmt.Errorf("operator: pipeline appears twice in a group")
		}
		p.ran = true
		if p.proj == nil {
			continue
		}
		live = append(live, p)
		if p.sel != nil {
			p.sel.memo = memo
		}
	}

	err := lockstep(live, fn)
	res := make([]Result, len(pipes))
	for i, p := range pipes {
		switch {
		case p.proj == nil:
			res[i].Checksum, res[i].Stats.Checksum = storage.ChecksumSeed, storage.ChecksumSeed
		case err != nil:
			res[i].Rows = p.proj.rows
		default:
			res[i] = p.result()
		}
	}
	return res, err
}

// lockstep drives the members to end of stream together: one batch from
// each per step, checked to cover the same rows under the same selection,
// digested once for all of them, accounted to each.
func lockstep(live []*Pipeline, fn func(r *Row) error) error {
	if len(live) == 0 {
		return nil
	}
	dg := newGroupDigest(live)
	batches := make([]*Batch, len(live))
	var row Row
	for {
		ended := 0
		for i, p := range live {
			b, err := p.proj.child.NextBatch()
			if err != nil {
				return err
			}
			batches[i] = b
			if b == nil {
				ended++
			}
		}
		if ended > 0 {
			// Every member reads the same rows in batches of one size; a
			// straggler means the lockstep broke upstream.
			if ended != len(live) {
				return fmt.Errorf("operator: group members ended out of step (%d of %d)", ended, len(live))
			}
			dg.finish(live)
			return nil
		}
		b := batches[0]
		for _, o := range batches[1:] {
			if o.Base != b.Base || o.n != b.n || !sameSel(o.sel, b.sel) {
				return fmt.Errorf("operator: group members out of step: %d rows at row %d selecting %d beside %d rows at row %d selecting %d",
					o.n, o.Base, o.live(), b.n, b.Base, b.live())
			}
		}
		dg.digest(b)
		for i, p := range live {
			p.proj.account(batches[i])
		}
		if fn != nil {
			if err := live[0].emit(b, &row, fn); err != nil {
				return err
			}
		}
	}
}

// sameSel reports whether two selection vectors select the same slots.
func sameSel(a, b []int32) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	return len(a) == 0 || &a[0] == &b[0] || slices.Equal(a, b)
}
