package advisor

import (
	"fmt"
	"testing"

	"knives/internal/attrset"
	"knives/internal/schema"
)

func fpTable(t *testing.T) *schema.Table {
	t.Helper()
	tab, err := schema.NewTable("t", 1000, []schema.Column{
		{Name: "a", Kind: schema.KindInt, Size: 4},
		{Name: "b", Kind: schema.KindInt, Size: 8},
		{Name: "c", Kind: schema.KindVarchar, Size: 64},
	})
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func TestFingerprintIsStable(t *testing.T) {
	tab := fpTable(t)
	tw := schema.TableWorkload{Table: tab, Queries: []schema.TableQuery{
		{ID: "q1", Weight: 1, Attrs: attrset.Of(0, 1)},
		{ID: "q2", Weight: 2, Attrs: attrset.Of(2)},
	}}
	if FingerprintOf(tw) != FingerprintOf(tw) {
		t.Error("same workload fingerprinted differently")
	}
}

func TestFingerprintIgnoresQueryIDs(t *testing.T) {
	tab := fpTable(t)
	a := schema.TableWorkload{Table: tab, Queries: []schema.TableQuery{
		{ID: "q1", Weight: 1, Attrs: attrset.Of(0, 1)},
	}}
	b := schema.TableWorkload{Table: tab, Queries: []schema.TableQuery{
		{ID: "renamed", Weight: 1, Attrs: attrset.Of(0, 1)},
	}}
	if FingerprintOf(a) != FingerprintOf(b) {
		t.Error("query IDs changed the fingerprint; they never affect cost")
	}
}

func TestFingerprintNormalizesZeroWeight(t *testing.T) {
	tab := fpTable(t)
	zero := schema.TableWorkload{Table: tab, Queries: []schema.TableQuery{
		{ID: "q", Weight: 0, Attrs: attrset.Of(0)},
	}}
	one := schema.TableWorkload{Table: tab, Queries: []schema.TableQuery{
		{ID: "q", Weight: 1, Attrs: attrset.Of(0)},
	}}
	if FingerprintOf(zero) != FingerprintOf(one) {
		t.Error("weight 0 and weight 1 price identically but fingerprint differently")
	}
}

// Query order is part of the fingerprint: O2P is in the portfolio and is
// intentionally order-sensitive, so workloads differing only in arrival
// order may not share a cache entry.
func TestFingerprintPreservesQueryOrder(t *testing.T) {
	tab := fpTable(t)
	ab := schema.TableWorkload{Table: tab, Queries: []schema.TableQuery{
		{ID: "q1", Weight: 1, Attrs: attrset.Of(0, 1)},
		{ID: "q2", Weight: 1, Attrs: attrset.Of(2)},
	}}
	ba := schema.TableWorkload{Table: tab, Queries: []schema.TableQuery{
		{ID: "q2", Weight: 1, Attrs: attrset.Of(2)},
		{ID: "q1", Weight: 1, Attrs: attrset.Of(0, 1)},
	}}
	if FingerprintOf(ab) == FingerprintOf(ba) {
		t.Error("permuted query order kept the fingerprint; O2P is order-sensitive")
	}
}

func TestFingerprintCoversSchema(t *testing.T) {
	base := fpTable(t)
	queries := []schema.TableQuery{{ID: "q", Weight: 1, Attrs: attrset.Of(0, 1)}}
	fp := FingerprintOf(schema.TableWorkload{Table: base, Queries: queries})

	mutations := []struct {
		name string
		tab  func(t *testing.T) *schema.Table
	}{
		{"row count", func(t *testing.T) *schema.Table {
			return schema.MustTable("t", 2000, base.Columns)
		}},
		{"column width", func(t *testing.T) *schema.Table {
			cols := append([]schema.Column(nil), base.Columns...)
			cols[1].Size = 16
			return schema.MustTable("t", 1000, cols)
		}},
		{"column kind", func(t *testing.T) *schema.Table {
			cols := append([]schema.Column(nil), base.Columns...)
			cols[0].Kind = schema.KindDate
			return schema.MustTable("t", 1000, cols)
		}},
		{"table name", func(t *testing.T) *schema.Table {
			return schema.MustTable("u", 1000, base.Columns)
		}},
	}
	for _, mut := range mutations {
		got := FingerprintOf(schema.TableWorkload{Table: mut.tab(t), Queries: queries})
		if got == fp {
			t.Errorf("changing the %s did not change the fingerprint", mut.name)
		}
	}
}

// fingerprintKnownAnswers pins the digest of three fixed workloads. The
// fingerprint is journaled (commit and EvRecompute events) and served in
// every advice response, so its definition may not move: a change to the
// canonical bytes or their order fails here before it reaches a WAL.
func fingerprintKnownAnswers(t *testing.T) []struct {
	name string
	tw   schema.TableWorkload
	want string
} {
	t.Helper()
	tab := fpTable(t)
	wide := make([]schema.Column, 64)
	for i := range wide {
		wide[i] = schema.Column{Name: fmt.Sprintf("c%02d", i), Kind: schema.ColumnKind(i % 5), Size: 1 + i%17}
	}
	wideTab, err := schema.NewTable("wide", 1<<40, wide)
	if err != nil {
		t.Fatal(err)
	}
	var all attrset.Set
	for i := range wide {
		all = all.Add(i)
	}
	return []struct {
		name string
		tw   schema.TableWorkload
		want string
	}{
		{"two queries", schema.TableWorkload{Table: tab, Queries: []schema.TableQuery{
			{ID: "q1", Weight: 1, Attrs: attrset.Of(0, 1)},
			{ID: "q2", Weight: 2.5, Attrs: attrset.Of(2)},
		}}, "bf38a88bbadd931fb35c2f874dc4e9a3d1b6bcad665fa6cf5787a67e14798348"},
		{"zero weight", schema.TableWorkload{Table: tab, Queries: []schema.TableQuery{
			{ID: "q", Weight: 0, Attrs: attrset.Of(0, 2)},
		}}, "e2da7220a98d7a9ed13b47ee292ca05929e8981f10708db37510fb69d7b993bb"},
		{"64 columns", schema.TableWorkload{Table: wideTab, Queries: []schema.TableQuery{
			{ID: "all", Weight: 3, Attrs: all},
			{ID: "edge", Weight: 1e-300, Attrs: attrset.Of(0, 63)},
		}}, "d951c792ef81f2ef2da44343bd8be0bc6ab3c8d608dbf0cf4c82196fdedf326f"},
	}
}

func TestFingerprintKnownAnswers(t *testing.T) {
	for _, c := range fingerprintKnownAnswers(t) {
		if got := FingerprintOf(c.tw).String(); got != c.want {
			t.Errorf("%s: FingerprintOf = %s, want %s", c.name, got, c.want)
		}
	}
}
