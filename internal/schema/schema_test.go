package schema

import (
	"math"
	"testing"

	"knives/internal/attrset"
)

func TestNewTableValidation(t *testing.T) {
	cols := []Column{{Name: "a", Size: 4}, {Name: "b", Size: 8}}
	tab, err := NewTable("t", 100, cols)
	if err != nil {
		t.Fatal(err)
	}
	if tab.RowSize() != 12 {
		t.Errorf("RowSize = %d, want 12", tab.RowSize())
	}
	if tab.Bytes() != 1200 {
		t.Errorf("Bytes = %d, want 1200", tab.Bytes())
	}

	cases := []struct {
		name string
		rows int64
		cols []Column
	}{
		{"empty", 1, nil},
		{"dup", 1, []Column{{Name: "a", Size: 1}, {Name: "a", Size: 1}}},
		{"zero size", 1, []Column{{Name: "a", Size: 0}}},
		{"neg rows", -1, []Column{{Name: "a", Size: 1}}},
		{"row past MaxRowWidth", 1, []Column{{Name: "a", Size: MaxRowWidth}, {Name: "b", Size: 1}}},
		{"column wraps int64", 1, []Column{{Name: "a", Size: 8}, {Name: "b", Size: math.MaxInt}}},
		{"bytes past MaxTableBytes", MaxTableBytes/12 + 1, cols},
		{"2^63-1 rows of 64 MiB", math.MaxInt64, []Column{{Name: "a", Size: 64 << 20}}},
	}
	for _, c := range cases {
		if _, err := NewTable(c.name, c.rows, c.cols); err == nil {
			t.Errorf("NewTable(%s) succeeded, want error", c.name)
		}
	}
	if _, err := NewTable("t", MaxTableBytes/12, cols); err != nil {
		t.Errorf("the largest admitted table of 12-byte rows refused: %v", err)
	}
	if _, err := NewTable("t", 1, []Column{{Name: "a", Size: MaxRowWidth}}); err != nil {
		t.Errorf("a row of MaxRowWidth bytes refused: %v", err)
	}
}

// A scale factor that would put a table past MaxTableBytes is refused
// before any row count is converted: at 1e15 TPC-H's lineitem used to wrap
// and clamp to 1 row.
func TestBenchmarkByNameRefusesTablesPastTheCeiling(t *testing.T) {
	for _, name := range []string{"tpch", "ssb"} {
		for _, sf := range []float64{1e15, 1e300, math.Inf(1)} {
			if b, err := BenchmarkByName(name, sf); err == nil {
				t.Errorf("%s at sf %v admitted (%s has %d rows)", name, sf, b.Tables[0].Name, b.Tables[0].Rows)
			}
		}
		b, err := BenchmarkByName(name, 1e9)
		if err != nil {
			t.Fatalf("%s at sf 1e9 refused: %v", name, err)
		}
		for _, tab := range b.Tables {
			if tab.Bytes() <= 0 || tab.Bytes() > MaxTableBytes {
				t.Errorf("%s at sf 1e9: %s holds %d bytes", name, tab.Name, tab.Bytes())
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("TPCH(1e15) built a benchmark")
		}
	}()
	TPCH(1e15)
}

func TestAttrIndexAndAttrs(t *testing.T) {
	tab := MustTable("t", 1, []Column{{Name: "x", Size: 1}, {Name: "y", Size: 2}})
	if tab.AttrIndex("y") != 1 {
		t.Errorf("AttrIndex(y) = %d", tab.AttrIndex("y"))
	}
	if tab.AttrIndex("z") != -1 {
		t.Errorf("AttrIndex(z) = %d, want -1", tab.AttrIndex("z"))
	}
	if got := tab.Attrs("x", "y"); got != attrset.Of(0, 1) {
		t.Errorf("Attrs = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("Attrs with unknown name did not panic")
		}
	}()
	tab.Attrs("nope")
}

func TestSetSizeAndAttrNames(t *testing.T) {
	tab := MustTable("t", 1, []Column{
		{Name: "a", Size: 4}, {Name: "b", Size: 8}, {Name: "c", Size: 1},
	})
	if got := tab.SetSize(attrset.Of(0, 2)); got != 5 {
		t.Errorf("SetSize = %d, want 5", got)
	}
	names := tab.AttrNames(attrset.Of(1, 2))
	if len(names) != 2 || names[0] != "b" || names[1] != "c" {
		t.Errorf("AttrNames = %v", names)
	}
}

func TestWorkloadPrefixAndForTable(t *testing.T) {
	b := TPCH(1)
	w := b.Workload
	if len(w.Queries) != 22 {
		t.Fatalf("TPC-H has %d queries, want 22", len(w.Queries))
	}
	if got := w.Prefix(3); len(got.Queries) != 3 {
		t.Errorf("Prefix(3) has %d queries", len(got.Queries))
	}
	if got := w.Prefix(-1); len(got.Queries) != 0 {
		t.Errorf("Prefix(-1) has %d queries", len(got.Queries))
	}
	if got := w.Prefix(99); len(got.Queries) != 22 {
		t.Errorf("Prefix(99) has %d queries", len(got.Queries))
	}

	ps := b.Table("partsupp")
	tw := w.ForTable(ps)
	// Q2, Q9, Q11, Q16, Q20 reference partsupp.
	wantIDs := []string{"Q2", "Q9", "Q11", "Q16", "Q20"}
	if len(tw.Queries) != len(wantIDs) {
		t.Fatalf("partsupp workload has %d queries, want %d", len(tw.Queries), len(wantIDs))
	}
	for i, id := range wantIDs {
		if tw.Queries[i].ID != id {
			t.Errorf("partsupp query %d = %s, want %s", i, tw.Queries[i].ID, id)
		}
		if tw.Queries[i].Weight != 1 {
			t.Errorf("default weight = %v, want 1", tw.Queries[i].Weight)
		}
	}
	// ps_comment (index 4) is never referenced.
	if tw.ReferencedAttrs().Has(4) {
		t.Error("ps_comment should be unreferenced")
	}
}

func TestTPCHValidatesAndHasExpectedShape(t *testing.T) {
	b := TPCH(10)
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	li := b.Table("lineitem")
	if li == nil || li.NumAttrs() != 16 {
		t.Fatalf("lineitem has %d attrs, want 16", li.NumAttrs())
	}
	if li.Rows != 60_000_000 {
		t.Errorf("lineitem rows = %d, want 60M at SF10", li.Rows)
	}
	if li.RowSize() != 141 {
		t.Errorf("lineitem row size = %d, want 141", li.RowSize())
	}
	// Q1 touches exactly 7 lineitem attributes.
	q1 := b.Workload.Queries[0]
	if got := q1.Refs["lineitem"].Len(); got != 7 {
		t.Errorf("Q1 references %d lineitem attrs, want 7", got)
	}
	// l_linenumber and l_comment are never referenced by any query.
	tw := b.Workload.ForTable(li)
	ref := tw.ReferencedAttrs()
	for _, name := range []string{"l_linenumber", "l_comment"} {
		if ref.Has(li.AttrIndex(name)) {
			t.Errorf("%s should be unreferenced across TPC-H", name)
		}
	}
	if got := ref.Len(); got != 14 {
		t.Errorf("lineitem has %d referenced attrs, want 14", got)
	}
	// Region is fixed-size regardless of scale factor.
	if b.Table("region").Rows != 5 {
		t.Errorf("region rows = %d, want 5", b.Table("region").Rows)
	}
}

func TestSSBValidatesAndHasExpectedShape(t *testing.T) {
	b := SSB(10)
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(b.Workload.Queries) != 13 {
		t.Errorf("SSB has %d queries, want 13", len(b.Workload.Queries))
	}
	lo := b.Table("lineorder")
	if lo.NumAttrs() != 17 {
		t.Errorf("lineorder attrs = %d, want 17", lo.NumAttrs())
	}
	if lo.Rows != 60_000_000 {
		t.Errorf("lineorder rows = %d", lo.Rows)
	}
	// SSB part scales logarithmically: SF10 -> 200k * (1+floor(log2 10)) = 800k.
	if got := b.Table("part").Rows; got != 800_000 {
		t.Errorf("part rows = %d, want 800000", got)
	}
	if b.Table("date").Rows != 2556 {
		t.Errorf("date rows = %d, want 2556", b.Table("date").Rows)
	}
}

func TestValidateCatchesBadWorkloads(t *testing.T) {
	tab := MustTable("t", 1, []Column{{Name: "a", Size: 1}})
	cases := []Query{
		{ID: "bad-table", Refs: map[string]Set{"nope": attrset.Of(0)}},
		{ID: "bad-attr", Refs: map[string]Set{"t": attrset.Of(5)}},
		{ID: "empty-ref", Refs: map[string]Set{"t": 0}},
		{ID: "no-refs", Refs: nil},
	}
	for _, q := range cases {
		b := &Benchmark{Name: "x", Tables: []*Table{tab}, Workload: Workload{Queries: []Query{q}}}
		if err := b.Validate(); err == nil {
			t.Errorf("Validate accepted query %s", q.ID)
		}
	}
}

func TestBenchmarkTableLookup(t *testing.T) {
	b := TPCH(1)
	if b.Table("lineitem") == nil {
		t.Error("lineitem not found")
	}
	if b.Table("nonexistent") != nil {
		t.Error("nonexistent table found")
	}
	if got := len(b.TableWorkloads()); got != 8 {
		t.Errorf("TableWorkloads = %d entries, want 8", got)
	}
}
