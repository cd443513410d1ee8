package operator

import (
	"fmt"
	"strings"

	"knives/internal/attrset"
	"knives/internal/cost"
	"knives/internal/storage"
)

// Pipeline is a built σ/π/⋈ plan over one pinned epoch, ready to run once.
// Build shapes it bottom-up from the layout:
//
//	π(query)                      ← digest + projection, always the root
//	└─ ⋈                          ← only when >1 partition is referenced
//	   ├─ σ(pred) ── scan(part)   ← σ pushed onto the partition holding
//	   ├─ scan(part)                 the predicate's attribute
//	   └─ ...                     ← leaves in canonical layout order
//
// Leaves share the engine's proportional buffer split (each cursor's
// allotment is Buff·rowSize/totalRowSize), so the pipeline's physical
// accounting is the monolithic Scan's, term for term.
type Pipeline struct {
	dev    cost.Device
	query  attrset.Set
	pred   *Pred
	root   Operator
	proj   *Project
	join   *ReconJoin
	leaves []*Scan
	ops    []Operator // bottom-up: leaves (canonical order), σ, ⋈, π
	ran    bool

	// Vector mode (opts.Mode == ExecVector): the same plan shape built from
	// batch-at-a-time operators over the same cursors.
	opts    ExecOptions
	vroot   VecOperator
	vproj   *VecProject
	vjoin   *VecReconJoin
	vleaves []*VecScan
	vops    []VecOperator
}

// ExecMode selects a pipeline's execution strategy.
type ExecMode string

const (
	// ExecRow is the PR-8 row-at-a-time Volcano path — the oracle every
	// other mode must match bit for bit.
	ExecRow ExecMode = "row"
	// ExecVector is the batch-at-a-time path: batches are views over the
	// store's pages, σ and π read them in place.
	ExecVector ExecMode = "vector"
)

// ExecOptions tune HOW a pipeline executes; they can never change WHAT it
// computes or measures — every mode shares the cursors, the row digest,
// and the aggregation order, so results and ScanStats are knob-invariant.
type ExecOptions struct {
	// Mode selects row- or batch-at-a-time execution; empty means row.
	Mode ExecMode
	// BatchSize is the rows per batch in vector mode; 0 uses
	// DefaultBatchSize, bounds are [1, MaxBatchSize].
	BatchSize int
	// Workers has no effect. It used to put each vector leaf on its own
	// goroutine so page-to-column copies could overlap; a leaf no longer
	// copies anything, so there was nothing left to overlap and the hand-off
	// cost more than it hid (CHANGES.md, PR 16). The field is still accepted
	// and validated (non-negative) because requests, flags and configs carry
	// it — and since every reported number was worker-invariant by contract,
	// ignoring it changes no output.
	Workers int
}

// Normalized validates and defaults exec options. The replay and serving
// layers share it, so a replayed pipeline and the wire-level validation in
// front of it can never disagree about what a legal knob is.
func (o ExecOptions) Normalized() (ExecOptions, error) { return o.normalized() }

// normalized validates and defaults exec options.
func (o ExecOptions) normalized() (ExecOptions, error) {
	switch o.Mode {
	case "", ExecRow:
		o.Mode = ExecRow
	case ExecVector:
	default:
		return o, fmt.Errorf("operator: unknown exec mode %q (%s or %s)", o.Mode, ExecRow, ExecVector)
	}
	if o.BatchSize < 0 || o.BatchSize > MaxBatchSize {
		return o, fmt.Errorf("operator: batch size %d out of range [0, %d]", o.BatchSize, MaxBatchSize)
	}
	if o.BatchSize == 0 {
		o.BatchSize = DefaultBatchSize
	}
	if o.Workers < 0 {
		return o, fmt.Errorf("operator: exec workers %d must be non-negative", o.Workers)
	}
	return o, nil
}

// Result is one pipeline execution's outcome: the rows that flowed out of
// the root, the engine-comparable totals, and the per-operator breakdown.
type Result struct {
	// Rows is the number of result rows the root emitted.
	Rows int64
	// Checksum is the row digest of the projected result (storage/digest.go):
	// equal across layouts, devices, backends and exec modes.
	Checksum uint64
	// Stats aggregates the pipeline in Engine.Scan's terms — for a plan
	// with no predicate it equals the monolithic scan's ScanStats bit for
	// bit (same cursors, same summation order).
	Stats storage.ScanStats
	// Ops breaks the work down per operator, bottom-up (leaves in
	// canonical layout order, then σ, ⋈, π as present).
	Ops []OpStats
	// FillRatios are vector mode's per-batch fill ratios (surviving rows
	// over batch capacity) in stream order; nil in row mode. A telemetry
	// signal only — it never feeds a verdict.
	FillRatios []float64
}

// Build plans query (a projection attribute set) with an optional
// selection predicate over the snapshot, pricing against dev. The device
// must share the snapshot's block geometry; its buffer and mechanical
// constants may differ (what-if execution on one materialized store).
// Attributes outside the table are ignored, like Engine.Scan. A plan
// referencing no attributes is valid and runs to an empty result for
// free. Build executes row-at-a-time; BuildExec selects the mode.
func Build(snap *storage.Snapshot, dev cost.Device, query attrset.Set, pred *Pred) (*Pipeline, error) {
	return BuildExec(snap, dev, query, pred, ExecOptions{})
}

// BuildExec is Build with an execution-mode choice: the same plan shape over
// the same cursors (same proportional buffer split, same canonical leaf
// order), constructed from row or vector operators. The knobs tune only
// wall-clock behavior; every result and every measured quantity is
// mode-, batch-size-, and worker-count-invariant.
func BuildExec(snap *storage.Snapshot, dev cost.Device, query attrset.Set, pred *Pred, opts ExecOptions) (*Pipeline, error) {
	opts, err := opts.normalized()
	if err != nil {
		return nil, err
	}
	if err := dev.Validate(); err != nil {
		return nil, err
	}
	all := snap.Table().AllAttrs()
	query = query.Intersect(all)
	needed := query
	if pred != nil {
		if pred.Match == nil {
			return nil, fmt.Errorf("operator: predicate %q has no Match function", pred.Name)
		}
		if !all.Has(pred.Attr) {
			return nil, fmt.Errorf("operator: predicate attribute %d outside table %s",
				pred.Attr, snap.Table().Name)
		}
		needed = needed.Add(pred.Attr)
	}
	p := &Pipeline{dev: dev, query: query, pred: pred, opts: opts}
	if needed.IsEmpty() {
		return p, nil
	}

	// Referenced partitions in canonical order, and the combined row size
	// that splits the I/O buffer proportionally across their cursors.
	var refs []int
	var totalRowSize int64
	for i := 0; i < snap.NumParts(); i++ {
		if snap.PartAttrs(i).Overlaps(needed) {
			refs = append(refs, i)
			totalRowSize += int64(snap.PartRowSize(i))
		}
	}

	if opts.Mode == ExecVector {
		return buildVector(p, snap, dev, query, pred, refs, totalRowSize)
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

// buildVector assembles the batch-at-a-time plan over the same refs and
// cursors the row plan would open: leaves in canonical order, σ directly
// above its leaf, chunk-aligned ⋈, digesting π at the root.
func buildVector(p *Pipeline, snap *storage.Snapshot, dev cost.Device, query attrset.Set, pred *Pred, refs []int, totalRowSize int64) (*Pipeline, error) {
	children := make([]VecOperator, 0, len(refs))
	for _, i := range refs {
		cur, err := snap.Cursor(i, dev, totalRowSize)
		if err != nil {
			return nil, err
		}
		leaf := NewVecScan(cur, dev, p.opts.BatchSize)
		p.vleaves = append(p.vleaves, leaf)
		p.vops = append(p.vops, leaf)
		var child VecOperator = leaf
		if pred != nil && snap.PartAttrs(i).Has(pred.Attr) {
			child = NewVecSelect(leaf, *pred)
			p.vops = append(p.vops, child)
		}
		children = append(children, child)
	}

	var root VecOperator = children[0]
	if len(children) > 1 {
		p.vjoin = NewVecReconJoin(children)
		p.vops = append(p.vops, p.vjoin)
		root = p.vjoin
	}
	p.vproj = NewVecProject(root, query, p.opts.BatchSize)
	p.vops = append(p.vops, p.vproj)
	p.vroot = p.vproj
	return p, nil
}

// Describe renders the plan bottom-up, one operator per line. The rendering
// is mode-invariant: a vector plan names the same operators in the same
// order as its row twin.
func (p *Pipeline) Describe() string {
	if p.root == nil && p.vroot == nil {
		return "(empty)"
	}
	var names []string
	if p.vroot != nil {
		for _, op := range p.vops {
			names = append(names, op.Name())
		}
	} else {
		for _, op := range p.ops {
			names = append(names, op.Name())
		}
	}
	return strings.Join(names, " → ")
}

// Run drives the pipeline to end of stream and aggregates. Equivalent to
// RunFunc(nil); a pipeline runs once.
func (p *Pipeline) Run() (Result, error) { return p.RunFunc(nil) }

// RunFunc drives the pipeline to end of stream, invoking fn (when
// non-nil) on every result row. Rows passed to fn alias operator-owned
// buffers and are valid only during the call — copy what you keep.
//
// The returned Result aggregates the leaves' physical accounting in the
// engine's own shape: Parts in canonical layout order, simulated time
// summed per partition with the identical seek+scan expression. That
// reuse — not a parallel implementation — is why executed totals equal
// Engine.Scan (and therefore the cost model) bit for bit.
func (p *Pipeline) RunFunc(fn func(r *Row) error) (Result, error) {
	if p.ran {
		return Result{}, fmt.Errorf("operator: pipeline already ran")
	}
	p.ran = true
	if p.opts.Mode == ExecVector {
		return p.runVector(fn)
	}
	var res Result
	if p.root == nil {
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
		p.charge(st, leaf.PartStats())
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

// charge adds one leaf's measurements to the totals exactly as Engine.Scan
// does — leaves come in canonical order, and simulated time is charged with
// the same per-partition grouping and summation order (floating-point
// addition is not associative; any other order could differ in the last bit).
func (p *Pipeline) charge(st *storage.ScanStats, ps storage.PartScanStats) {
	st.Parts = append(st.Parts, ps)
	st.Seeks += ps.Seeks
	st.BytesRead += ps.BytesRead
	st.CacheLines += ps.CacheLines
	st.SimTime += p.dev.SeekTime*float64(ps.Seeks) +
		float64(ps.BytesRead)/p.dev.ReadBandwidth
}

// runVector drives the batch-at-a-time plan to end of stream on the calling
// goroutine. Rows handed to fn are windows onto the batch's pages: read-only,
// and gone with the batch.
func (p *Pipeline) runVector(fn func(r *Row) error) (Result, error) {
	var res Result
	if p.vroot == nil {
		return res, nil
	}
	var row Row
	row.Attrs = p.query
	qcols := p.query.Attrs()
	for {
		b, err := p.vroot.NextBatch()
		if err != nil {
			return res, err
		}
		if b == nil {
			break
		}
		res.Rows += int64(b.live())
		if fn != nil {
			emit := func(slot int) error {
				row.ID = b.Base + int64(slot)
				for _, a := range qcols {
					row.vals[a] = b.Col(a, slot)
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
	}

	st := &res.Stats
	for _, leaf := range p.vleaves {
		p.charge(st, leaf.PartStats())
	}
	st.Tuples = res.Rows
	if p.vjoin != nil {
		st.ReconJoins = p.vjoin.Stats().ReconJoins
	}
	st.Checksum = p.vproj.Checksum()
	res.Checksum = st.Checksum
	for _, op := range p.vops {
		res.Ops = append(res.Ops, op.Stats())
	}
	res.FillRatios = p.vproj.FillRatios()
	return res, nil
}

// MeasuredSeconds converts executed totals to the seconds dev's pricing
// discipline charges: SimTime (seek+scan, already summed per partition)
// for block devices, cache-line transfers times miss latency — summed in
// the same canonical partition order the cache model sums its terms — for
// cache devices.
func MeasuredSeconds(dev cost.Device, st storage.ScanStats) float64 {
	if dev.Pricing == cost.PricingCache {
		var t float64
		for _, ps := range st.Parts {
			t += float64(ps.CacheLines) * dev.MissLatency
		}
		return t
	}
	return st.SimTime
}
