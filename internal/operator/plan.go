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
// Leaves share the cost model's proportional buffer split (each cursor's
// allotment is Buff·rowSize/totalRowSize), so the pipeline's physical
// accounting is the model's, term for term.
type Pipeline struct {
	dev    cost.Device
	query  attrset.Set
	opts   ExecOptions
	root   VecOperator
	proj   *VecProject
	join   *VecReconJoin
	leaves []*VecScan
	ops    []VecOperator // bottom-up: leaves (canonical order), σ, ⋈, π
	ran    bool
}

// ExecMode is a label requests, configs and reports carry. It used to pick
// between a row-at-a-time and a batch-at-a-time executor; there is one
// executor now (the batch-at-a-time one, vector.go), and the row Volcano is
// its test oracle (row_test.go).
type ExecMode string

// The two labels clients send. Both are accepted and neither selects
// anything; an empty mode reads as ExecRow, which is what a default request
// has always been answered with.
const (
	ExecRow    ExecMode = "row"
	ExecVector ExecMode = "vector"
)

// ExecOptions tune HOW a pipeline executes; they can never change WHAT it
// computes or measures — results and ScanStats are knob-invariant.
type ExecOptions struct {
	// Mode has no effect: it is validated (ExecRow, ExecVector or empty,
	// which defaults to ExecRow) and echoed back as a label, because
	// requests, configs and the frozen benchmark carry it.
	Mode ExecMode
	// BatchSize is the rows per batch; 0 uses DefaultBatchSize, bounds are
	// [1, MaxBatchSize]. Production leaves it zero: it is the seam the
	// batch-size legs of this package's tests and of the replay
	// differential turn, which hold every reported number
	// batch-size-invariant.
	BatchSize int
}

// Normalized validates and defaults exec options — the one place an exec
// mode is looked at. The replay and serving layers call it, so a replayed
// pipeline and the wire-level validation in front of it can never disagree
// about what a legal knob is.
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
	return o, nil
}

// Result is one pipeline execution's outcome: the rows that flowed out of
// the root, the engine-comparable totals, and the per-operator breakdown.
type Result struct {
	// Rows is the number of result rows the root emitted.
	Rows int64
	// Checksum is the row digest of the projected result (storage/digest.go):
	// equal across layouts, devices, backends and batch sizes.
	Checksum uint64
	// Stats aggregates the pipeline per referenced partition, in canonical
	// layout order, summed the way the cost model sums its terms.
	Stats storage.ScanStats
	// Ops breaks the work down per operator, bottom-up (leaves in
	// canonical layout order, then σ, ⋈, π as present).
	Ops []OpStats
	// FillRatios are the per-batch fill ratios (surviving rows over batch
	// capacity) in stream order. A telemetry signal only — it never feeds a
	// verdict.
	FillRatios []float64
}

// Build plans query (a projection attribute set) with an optional
// selection predicate over the snapshot, pricing against dev. The device
// must share the snapshot's block geometry; its buffer and mechanical
// constants may differ (what-if execution on one materialized store).
// Attributes outside the table are ignored. A plan referencing no
// attributes is valid and runs to an empty result for free.
func Build(snap *storage.Snapshot, dev cost.Device, query attrset.Set, pred *Pred) (*Pipeline, error) {
	return BuildExec(snap, dev, query, pred, ExecOptions{})
}

// BuildExec is Build with exec options: leaves in canonical layout order
// over cursors sharing the proportional buffer split, σ directly above the
// leaf holding the predicate's attribute, chunk-aligned ⋈, digesting π at
// the root. The options tune only wall-clock behavior; every result and
// every measured quantity is batch-size-invariant.
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
	p := &Pipeline{dev: dev, query: query, opts: opts}
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

	children := make([]VecOperator, 0, len(refs))
	for _, i := range refs {
		cur, err := snap.Cursor(i, dev, totalRowSize)
		if err != nil {
			return nil, err
		}
		leaf := NewVecScan(cur, dev, opts.BatchSize)
		p.leaves = append(p.leaves, leaf)
		p.ops = append(p.ops, leaf)
		var child VecOperator = leaf
		if pred != nil && snap.PartAttrs(i).Has(pred.Attr) {
			child = NewVecSelect(leaf, *pred)
			p.ops = append(p.ops, child)
		}
		children = append(children, child)
	}

	p.root = children[0]
	if len(children) > 1 {
		p.join = NewVecReconJoin(children)
		p.ops = append(p.ops, p.join)
		p.root = p.join
	}
	p.proj = NewVecProject(p.root, query, opts.BatchSize)
	p.ops = append(p.ops, p.proj)
	p.root = p.proj
	return p, nil
}

// Describe renders the plan bottom-up, one operator per line.
func (p *Pipeline) Describe() string {
	if p.root == nil {
		return "(empty)"
	}
	names := make([]string, len(p.ops))
	for i, op := range p.ops {
		names[i] = op.Name()
	}
	return strings.Join(names, " → ")
}

// Run drives the pipeline to end of stream and aggregates. Equivalent to
// RunFunc(nil); a pipeline runs once.
func (p *Pipeline) Run() (Result, error) { return p.RunFunc(nil) }

// RunFunc drives the pipeline to end of stream on the calling goroutine,
// invoking fn (when non-nil) on every result row. Rows handed to fn are
// windows onto the batch's pages: read-only, and gone with the batch — copy
// what you keep.
//
// The returned Result aggregates the leaves' physical accounting per
// partition: Parts in canonical layout order, simulated time summed per
// partition with the cost model's seek+scan expression in the cost model's
// order — which is why executed totals equal predictions bit for bit.
func (p *Pipeline) RunFunc(fn func(r *Row) error) (Result, error) {
	if p.ran {
		return Result{}, fmt.Errorf("operator: pipeline already ran")
	}
	p.ran = true
	var res Result
	if p.root == nil {
		return res, nil
	}
	var row Row
	row.Attrs = p.query
	qcols := p.query.Attrs()
	for {
		b, err := p.root.NextBatch()
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
	res.FillRatios = p.proj.FillRatios()
	return res, nil
}

// charge adds one leaf's measurements to the totals — leaves come in
// canonical order, and simulated time is charged with the cost model's
// per-partition grouping and summation order (floating-point addition is not
// associative; any other order could differ in the last bit).
func (p *Pipeline) charge(st *storage.ScanStats, ps storage.PartScanStats) {
	st.Parts = append(st.Parts, ps)
	st.Seeks += ps.Seeks
	st.BytesRead += ps.BytesRead
	st.CacheLines += ps.CacheLines
	st.SimTime += p.dev.SeekTime*float64(ps.Seeks) +
		float64(ps.BytesRead)/p.dev.ReadBandwidth
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
