package operator

import (
	"fmt"
	"slices"

	"knives/internal/storage"
)

// Lockstep groups. A table's workload is many pipelines over one snapshot
// under one predicate, and most of their work is the same work: every σ
// filters the same column of the same rows, and the row hashes of queries
// whose ascending attribute lists share a prefix agree on that prefix
// (storage/digest.go). RunGroup runs such pipelines batch by batch in
// lockstep and does that work once per batch. Each member keeps its own
// cursors, operators and accounting, so its Result is the one it returns
// alone, field for field (FuzzGroupVsAlone).

// scratchRows is the length of a group digest's row-hash vectors: a segment
// longer than that is cut there too, which never shows in a checksum.
const scratchRows = 256

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

// prefixNode is one node of a group's prefix trie: an attribute folded at
// some depth of a member's ascending attribute list, taking the row hashes
// of the prefix before it (vector src) to those of the prefix through it
// (vector dst). The trie holds each distinct prefix once.
type prefixNode struct {
	part     int // index into groupDigest.parts
	src, dst int // row-hash vectors: the parent's, and this node's
	off, w   int // where the attribute lies in its partition row
}

// partRead is one partition the digest reads, through ONE member's view of
// it: every member's leaf over a partition of the shared snapshot holds the
// same bytes in the same page runs, so a segment is cut and a column read
// once per partition, not once per member. ri and row place the current
// segment's first row.
type partRead struct {
	v   *view
	ri  int
	row []byte
}

// groupDigest is π's work for a whole group: the members' row hashes, folded
// column-at-a-time one prefix-trie node at a time in preorder, and one
// FoldRows per member into its own checksum. Vector 0 holds the seeded row
// hashes of the empty prefix. A node's last child folds over its parent's
// vector in place — nothing reads the parent's hashes after it — and every
// other child takes the next vector up, so a group needs one vector more
// than the most earlier-sibling edges on any root-to-leaf path, not one per
// attribute. It allocates once, when the group forms.
type groupDigest struct {
	projs []*VecProject // in lexicographic order of their attribute lists
	ends  []int         // ends[j]: the node completing projs[j]'s row hashes; -1: the empty prefix
	nodes []prefixNode  // preorder
	parts []partRead
	rh    []uint64 // vector v at [v*scratchRows, (v+1)*scratchRows)
}

// newGroupDigest lays the members' projections out as a prefix trie.
// Sorted lexicographically, each member shares with its predecessor the
// longest prefix it shares with any member before it, so adding only the
// nodes past that prefix builds every distinct prefix exactly once, in
// preorder. Each node reads its attribute where the plan that added it
// binds it.
func newGroupDigest(members []*Pipeline) *groupDigest {
	order := make([]int, len(members))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return slices.Compare(members[a].proj.cols, members[b].proj.cols) })

	d := &groupDigest{}
	var parent []int                                  // parent[k]: node k's parent; -1: the empty prefix
	partOf := make([]int, len(members[0].bind.views)) // snapshot partition → 1 + index into d.parts; 0: unread
	var path, prev []int                              // the previous member's nodes and attributes
	for _, m := range order {
		bind, cols := members[m].bind, members[m].proj.cols
		shared := 0
		for shared < len(cols) && shared < len(prev) && cols[shared] == prev[shared] {
			shared++
		}
		path = path[:shared]
		for _, a := range cols[shared:] {
			l := bind.loc[a]
			if partOf[l.Part] == 0 {
				d.parts = append(d.parts, partRead{v: bind.views[l.Part]})
				partOf[l.Part] = len(d.parts)
			}
			up := -1
			if len(path) > 0 {
				up = path[len(path)-1]
			}
			path = append(path, len(d.nodes))
			parent = append(parent, up)
			d.nodes = append(d.nodes, prefixNode{part: partOf[l.Part] - 1, off: l.Off, w: l.Width})
		}
		end := -1
		if len(cols) > 0 {
			end = path[len(cols)-1]
		}
		d.projs = append(d.projs, members[m].proj)
		d.ends = append(d.ends, end)
		prev = cols
	}

	// Assign the vectors: a node's last child folds in place over its
	// parent's, every earlier child one vector up. The vectors a node's
	// unfinished ancestors still hold are all below its own, since only an
	// earlier-sibling edge leaves an ancestor with children to come.
	last := make([]int, len(d.nodes)+1) // last[p+1]: node p's last child
	for k, p := range parent {
		last[p+1] = k
	}
	vectors := 1
	for k, p := range parent {
		nd := &d.nodes[k]
		if p >= 0 {
			nd.src = d.nodes[p].dst
		}
		nd.dst = nd.src
		if last[p+1] != k {
			nd.dst++
		}
		vectors = max(vectors, nd.dst+1)
	}
	d.rh = make([]uint64, vectors*scratchRows)
	return d
}

// vector returns row-hash vector v.
func (d *groupDigest) vector(v int) []uint64 {
	return d.rh[v*scratchRows : (v+1)*scratchRows]
}

// digest folds one lockstep batch into every member's checksum: b is any
// member's, since every member's batch covers the same rows under the same
// selection (lockstep checks). The slot range is split at the union of the
// read partitions' run boundaries and at the scratch's length; inside a
// segment every partition's rows sit at a fixed stride on one page, and
// where a segment ends never shows.
func (d *groupDigest) digest(b *Batch) {
	for i := range d.parts {
		d.parts[i].ri = 0
	}
	si := 0 // next entry of b.sel
	for s := 0; s < b.n; {
		// Step every partition onto the run holding slot s and end the
		// segment at the nearest run end. (With no partitions — empty
		// projections under σ — the rows are column-less.)
		e := min(b.n, s+scratchRows)
		for i := range d.parts {
			pr := &d.parts[i]
			r := &pr.v.runs[pr.ri]
			if r.first+r.n <= s {
				pr.ri++
				r = &pr.v.runs[pr.ri]
			}
			pr.row = r.rows[(s-r.first)*pr.v.rowSize:]
			if end := r.first + r.n; end < e {
				e = end
			}
		}
		n := e - s
		var sel []int32 // the segment's survivors; nil = all of [s, e)
		if b.sel != nil {
			sj := si
			for sj < len(b.sel) && int(b.sel[sj]) < e {
				sj++
			}
			sel, si = b.sel[si:sj], sj
			n = len(sel)
		}
		rh := d.vector(0)[:n]
		storage.SeedRows(rh)
		j := 0
		for ; j < len(d.ends) && d.ends[j] < 0; j++ {
			d.projs[j].h = storage.FoldRows(d.projs[j].h, rh)
		}
		for k := range d.nodes {
			nd := &d.nodes[k]
			pr := &d.parts[nd.part]
			rh = d.vector(nd.dst)[:n]
			storage.FoldColumn(rh, d.vector(nd.src), pr.row[nd.off:], pr.v.rowSize, nd.w, sel, s)
			for ; j < len(d.ends) && d.ends[j] == k; j++ {
				d.projs[j].h = storage.FoldRows(d.projs[j].h, rh)
			}
		}
		s = e
	}
}

// RunGroup runs pipelines built over one snapshot with one predicate (the
// same *Pred, or none) and one batch size to end of stream, in lockstep on
// the calling goroutine, and returns their Results in order. Every member
// keeps its own cursors, operators and accounting — its Result is the one
// its Run would return — but the group evaluates σ once per batch and folds
// each column prefix its members' ascending attribute lists share once per
// batch. A member whose batch disagrees with the others' on base, length or
// selection is an error, never a checksum. Every pipeline runs once; Run is
// a group of one.
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
