package operator

import "knives/internal/attrset"

// Row is one result tuple as Pipeline.RunFunc hands it to its callback: the
// attributes it carries and, per attribute, the raw column bytes. The row
// and its column slices are windows onto the current batch's pages — valid
// only during the callback.
type Row struct {
	// ID is the tuple's row index in the stored table.
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
