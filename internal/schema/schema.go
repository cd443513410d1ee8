// Package schema describes logical relations and scan/projection workloads.
//
// In the paper's unified setting the only thing an algorithm needs to know
// about a query is which attributes of each table it references (queries are
// reduced to scan + projection; selection predicates are excluded from the
// cost model). A Workload is therefore a list of per-table attribute sets.
package schema

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"knives/internal/attrset"
)

// Set aliases attrset.Set so workload literals stay compact.
type Set = attrset.Set

// ColumnKind classifies a column's value domain. The I/O cost model only
// cares about byte widths, but the storage engine uses kinds to pick value
// generators and compression schemes (delta for integers and dates,
// LZ/dictionary for strings), mirroring DBMS-X in the paper's Table 7.
type ColumnKind int

const (
	KindInt ColumnKind = iota
	KindDecimal
	KindDate
	KindChar    // fixed-length string
	KindVarchar // variable-length string (width = declared maximum)
)

func (k ColumnKind) String() string {
	switch k {
	case KindInt:
		return "int"
	case KindDecimal:
		return "decimal"
	case KindDate:
		return "date"
	case KindChar:
		return "char"
	case KindVarchar:
		return "varchar"
	default:
		return fmt.Sprintf("ColumnKind(%d)", int(k))
	}
}

// Column is one attribute of a table.
type Column struct {
	Name string
	Kind ColumnKind
	// Size is the number of bytes one value occupies in the
	// uncompressed fixed-width physical layout.
	Size int
}

// Table is a logical relation with a fixed row count.
type Table struct {
	Name    string
	Columns []Column
	Rows    int64

	index map[string]int
}

// The admitted table size. The cost model and the storage engine take
// products of a table's sizes in int64 — rows × row width, and block counts
// times the block size, summed over a layout's partitions — and under these
// ceilings every one of them fits on the preset devices, with room to
// spare, instead of wrapping and pricing a table negative.
const (
	// MaxRowWidth bounds a row's bytes, the sum of its column sizes.
	MaxRowWidth = 1 << 30
	// MaxTableBytes bounds a table's rows × row width.
	MaxTableBytes = 1 << 60
)

// NewTable builds a Table and validates it: at least one column, unique
// column names, positive sizes, at most attrset.MaxAttrs columns, and a
// size within MaxRowWidth and MaxTableBytes.
func NewTable(name string, rows int64, cols []Column) (*Table, error) {
	if len(cols) == 0 {
		return nil, fmt.Errorf("schema: table %s has no columns", name)
	}
	if len(cols) > attrset.MaxAttrs {
		return nil, fmt.Errorf("schema: table %s has %d columns, max %d", name, len(cols), attrset.MaxAttrs)
	}
	if rows < 0 {
		return nil, fmt.Errorf("schema: table %s has negative row count %d", name, rows)
	}
	t := &Table{Name: name, Columns: cols, Rows: rows, index: make(map[string]int, len(cols))}
	var width int64
	for i, c := range cols {
		if c.Size <= 0 {
			return nil, fmt.Errorf("schema: table %s column %s has size %d", name, c.Name, c.Size)
		}
		if int64(c.Size) > MaxRowWidth-width {
			return nil, fmt.Errorf("schema: table %s rows are wider than %d bytes", name, MaxRowWidth)
		}
		width += int64(c.Size)
		if _, dup := t.index[c.Name]; dup {
			return nil, fmt.Errorf("schema: table %s has duplicate column %s", name, c.Name)
		}
		t.index[c.Name] = i
	}
	if rows > MaxTableBytes/width {
		return nil, fmt.Errorf("schema: table %s of %d rows x %d bytes is past the %d-byte table ceiling", name, rows, width, int64(MaxTableBytes))
	}
	return t, nil
}

// scaler builds the tables of a built-in benchmark at scale factor sf. It
// checks a table's row count against MaxTableBytes before converting it to
// int64, so a scale factor too large for a table is an error rather than a
// row count that wraps. After the first error it builds nothing.
type scaler struct {
	sf  float64
	err error
}

// table builds a table of base × sf rows, rounded, and at least 1.
func (s *scaler) table(name string, base int64, cols []Column) *Table {
	return s.rows(name, max(1, math.Round(float64(base)*s.sf)), cols)
}

// rows builds a table of the given whole number of rows.
func (s *scaler) rows(name string, rows float64, cols []Column) *Table {
	if s.err != nil {
		return nil
	}
	if !(rows <= MaxTableBytes) {
		s.err = fmt.Errorf("schema: scale factor %v gives table %s %.4g rows, past the %d-byte table ceiling", s.sf, name, rows, int64(MaxTableBytes))
		return nil
	}
	t, err := NewTable(name, int64(rows), cols)
	s.err = err
	return t
}

// mustBenchmark returns b, panicking on err.
func mustBenchmark(b *Benchmark, err error) *Benchmark {
	if err != nil {
		panic(err)
	}
	return b
}

// MustTable is NewTable that panics on error; for package-internal literals.
func MustTable(name string, rows int64, cols []Column) *Table {
	t, err := NewTable(name, rows, cols)
	if err != nil {
		panic(err)
	}
	return t
}

// NumAttrs returns the number of columns.
func (t *Table) NumAttrs() int { return len(t.Columns) }

// AllAttrs returns the set of all column indexes.
func (t *Table) AllAttrs() attrset.Set { return attrset.All(len(t.Columns)) }

// AttrIndex returns the index of the named column, or -1 if absent.
func (t *Table) AttrIndex(name string) int {
	i, ok := t.index[name]
	if !ok {
		return -1
	}
	return i
}

// Attrs resolves column names to a set, panicking on unknown names.
// It is intended for static workload definitions.
func (t *Table) Attrs(names ...string) attrset.Set {
	var s attrset.Set
	for _, n := range names {
		i := t.AttrIndex(n)
		if i < 0 {
			panic(fmt.Sprintf("schema: table %s has no column %s", t.Name, n))
		}
		s = s.Add(i)
	}
	return s
}

// RowSize returns the total byte width of one full row.
func (t *Table) RowSize() int64 { return t.SetSize(t.AllAttrs()) }

// SetSize returns the combined byte width of the given columns.
func (t *Table) SetSize(s attrset.Set) int64 {
	var total int64
	s.ForEach(func(a int) {
		total += int64(t.Columns[a].Size)
	})
	return total
}

// Bytes returns the total uncompressed size of the table in bytes.
func (t *Table) Bytes() int64 { return t.RowSize() * t.Rows }

// AttrNames renders a set of column indexes as names, in index order.
func (t *Table) AttrNames(s attrset.Set) []string {
	out := make([]string, 0, s.Len())
	s.ForEach(func(a int) { out = append(out, t.Columns[a].Name) })
	return out
}

// Query is one workload query: for each referenced table, the set of
// attributes the query touches anywhere (projection, predicates, joins,
// grouping — the unified setting reads them all).
type Query struct {
	ID     string
	Weight float64 // relative frequency; 1 unless stated otherwise
	Refs   map[string]attrset.Set
}

// TableQuery is a query projected onto a single table.
type TableQuery struct {
	ID     string
	Weight float64
	Attrs  attrset.Set
}

// TableWorkload is the part of a workload that concerns one table. This is
// the unit every partitioning algorithm operates on: the paper partitions
// each table separately.
type TableWorkload struct {
	Table   *Table
	Queries []TableQuery
}

// ReferencedAttrs returns the union of all attributes any query touches.
func (tw TableWorkload) ReferencedAttrs() attrset.Set {
	var s attrset.Set
	for _, q := range tw.Queries {
		s = s.Union(q.Attrs)
	}
	return s
}

// Workload is an ordered list of queries. Order matters for the paper's
// "first k queries" experiments and for online algorithms.
type Workload struct {
	Queries []Query
}

// Prefix returns a workload holding only the first k queries.
// k is clamped to [0, len].
func (w Workload) Prefix(k int) Workload {
	if k < 0 {
		k = 0
	}
	if k > len(w.Queries) {
		k = len(w.Queries)
	}
	return Workload{Queries: w.Queries[:k]}
}

// ForTable projects the workload onto one table, keeping only queries that
// reference it (in workload order).
func (w Workload) ForTable(t *Table) TableWorkload {
	tw := TableWorkload{Table: t}
	for _, q := range w.Queries {
		attrs, ok := q.Refs[t.Name]
		if !ok || attrs.IsEmpty() {
			continue
		}
		weight := q.Weight
		if weight == 0 {
			weight = 1
		}
		tw.Queries = append(tw.Queries, TableQuery{ID: q.ID, Weight: weight, Attrs: attrs})
	}
	return tw
}

// Benchmark bundles a set of tables with a workload over them.
type Benchmark struct {
	Name     string
	Tables   []*Table
	Workload Workload
}

// BenchmarkByName builds a built-in benchmark ("tpch"/"tpc-h" or "ssb",
// case-insensitive) at the given scale factor. A zero scale factor means
// "unset" and uses the paper's default of 10 (the advisor wire format
// omits the field); a negative one is rejected rather than silently
// rewritten, and so is one that puts a table past MaxTableBytes (past
// sf ≈ 1.36e9 for TPC-H and ≈ 1.75e9 for SSB, where lineitem and lineorder
// outgrow it). Every surface that accepts a benchmark name (the knives CLI,
// knivesd flags, the advisor wire format) resolves through this one
// helper.
func BenchmarkByName(name string, sf float64) (*Benchmark, error) {
	if !(sf >= 0) { // negated compare also rejects NaN
		return nil, fmt.Errorf("schema: invalid scale factor %v", sf)
	}
	if sf == 0 {
		sf = 10
	}
	switch strings.ToLower(name) {
	case "tpch", "tpc-h":
		return tpch(sf)
	case "ssb":
		return ssb(sf)
	default:
		return nil, fmt.Errorf("schema: unknown benchmark %q (tpch or ssb)", name)
	}
}

// Table returns the named table, or nil.
func (b *Benchmark) Table(name string) *Table {
	for _, t := range b.Tables {
		if t.Name == name {
			return t
		}
	}
	return nil
}

// TableWorkloads returns the per-table workloads for all tables, in the
// benchmark's table order.
func (b *Benchmark) TableWorkloads() []TableWorkload {
	out := make([]TableWorkload, 0, len(b.Tables))
	for _, t := range b.Tables {
		out = append(out, b.Workload.ForTable(t))
	}
	return out
}

// Validate checks referential integrity of the workload: every query
// references only known tables and only in-range attributes.
func (b *Benchmark) Validate() error {
	for _, q := range b.Workload.Queries {
		if len(q.Refs) == 0 {
			return fmt.Errorf("schema: query %s references no tables", q.ID)
		}
		names := make([]string, 0, len(q.Refs))
		for n := range q.Refs {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			t := b.Table(n)
			if t == nil {
				return fmt.Errorf("schema: query %s references unknown table %s", q.ID, n)
			}
			if !t.AllAttrs().ContainsAll(q.Refs[n]) {
				return fmt.Errorf("schema: query %s references out-of-range attrs %v of %s", q.ID, q.Refs[n], n)
			}
			if q.Refs[n].IsEmpty() {
				return fmt.Errorf("schema: query %s has empty reference to %s", q.ID, n)
			}
		}
	}
	return nil
}
