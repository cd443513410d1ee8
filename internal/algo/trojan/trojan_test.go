package trojan

import (
	"errors"
	"testing"

	"knives/internal/algo"
	"knives/internal/attrset"
	"knives/internal/cost"
	"knives/internal/schema"
)

func model() cost.Model { return cost.NewHDD(cost.DefaultDisk()) }

func workload(t testing.TB, nAttrs int, queries ...schema.TableQuery) schema.TableWorkload {
	t.Helper()
	cols := make([]schema.Column, nAttrs)
	for i := range cols {
		cols[i] = schema.Column{Name: string(rune('a' + i)), Size: 8}
	}
	tab, err := schema.NewTable("t", 100_000, cols)
	if err != nil {
		t.Fatal(err)
	}
	return schema.TableWorkload{Table: tab, Queries: queries}
}

func TestName(t *testing.T) {
	if got := New().Name(); got != "Trojan" {
		t.Errorf("Name = %q", got)
	}
}

func TestNMIProperties(t *testing.T) {
	// q1 {0,1}, q2 {0,1}, q3 {2}: attrs 0 and 1 perfectly coupled; attr 2
	// anti-correlated with both.
	tw := workload(t, 3,
		schema.TableQuery{ID: "q1", Weight: 1, Attrs: attrset.Of(0, 1)},
		schema.TableQuery{ID: "q2", Weight: 1, Attrs: attrset.Of(0, 1)},
		schema.TableQuery{ID: "q3", Weight: 1, Attrs: attrset.Of(2)},
	)
	nmi := pairwiseNMI(tw, []int{0, 1, 2})
	if nmi[0][1] < 0.999 {
		t.Errorf("NMI(coupled) = %v, want 1", nmi[0][1])
	}
	if nmi[0][2] != 0 || nmi[1][2] != 0 {
		t.Errorf("NMI(anti-correlated) = %v, %v, want 0", nmi[0][2], nmi[1][2])
	}
	if nmi[1][0] != nmi[0][1] {
		t.Error("NMI not symmetric")
	}
}

func TestNMIDegenerateAlwaysAccessed(t *testing.T) {
	// Both attrs referenced by every query: zero entropy, but perfectly
	// coupled — defined as NMI 1.
	tw := workload(t, 2,
		schema.TableQuery{ID: "q1", Weight: 1, Attrs: attrset.Of(0, 1)},
		schema.TableQuery{ID: "q2", Weight: 2, Attrs: attrset.Of(0, 1)},
	)
	nmi := pairwiseNMI(tw, []int{0, 1})
	if nmi[0][1] != 1 {
		t.Errorf("NMI(always both) = %v, want 1", nmi[0][1])
	}
}

func TestGroupInterestingnessIsMeanPairwise(t *testing.T) {
	nmi := [][]float64{
		{0, 1.0, 0.5},
		{1.0, 0, 0.1},
		{0.5, 0.1, 0},
	}
	got := groupInterestingness(nmi, 0b111, 3)
	want := (1.0 + 0.5 + 0.1) / 3
	if diff := got - want; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("interestingness = %v, want %v", got, want)
	}
	if got := groupInterestingness(nmi, 0b001, 3); got != 0 {
		t.Errorf("singleton interestingness = %v, want 0", got)
	}
}

// The exact-cover DP picks the maximal-value disjoint grouping: with two
// perfectly coupled pairs, both pairs must be chosen.
func TestCoverSelectsCoupledPairs(t *testing.T) {
	tw := workload(t, 5,
		schema.TableQuery{ID: "q1", Weight: 3, Attrs: attrset.Of(0, 1)},
		schema.TableQuery{ID: "q2", Weight: 3, Attrs: attrset.Of(2, 3)},
		schema.TableQuery{ID: "q3", Weight: 1, Attrs: attrset.Of(4)},
	)
	res, err := New().Partition(tw, model())
	if err != nil {
		t.Fatal(err)
	}
	if res.Partitioning.PartOf(0) != attrset.Of(0, 1) {
		t.Errorf("pair {0,1} not grouped: %s", res.Partitioning)
	}
	if res.Partitioning.PartOf(2) != attrset.Of(2, 3) {
		t.Errorf("pair {2,3} not grouped: %s", res.Partitioning)
	}
	if res.Partitioning.PartOf(4) != attrset.Of(4) {
		t.Errorf("attr 4 not alone: %s", res.Partitioning)
	}
}

func TestThresholdDisablesGrouping(t *testing.T) {
	tw := workload(t, 3,
		schema.TableQuery{ID: "q1", Weight: 1, Attrs: attrset.Of(0, 1)},
		schema.TableQuery{ID: "q2", Weight: 1, Attrs: attrset.Of(0, 1, 2)},
	)
	strict := &Trojan{Threshold: 1.01}
	res, err := strict.Partition(tw, model())
	if err != nil {
		t.Fatal(err)
	}
	// Above-1 threshold prunes every multi-attribute group except the
	// degenerate NMI=1 pairs; attrs 0,1 are referenced by all queries ->
	// NMI undefined-but-coupled = 1 < 1.01, so everything is singleton.
	if res.Partitioning.NumParts() != 3 {
		t.Errorf("layout = %s, want singletons", res.Partitioning)
	}
}

func TestReferencedAttrCap(t *testing.T) {
	cols := make([]schema.Column, 25)
	for i := range cols {
		cols[i] = schema.Column{Name: string(rune('a' + i)), Size: 4}
	}
	tab := schema.MustTable("wide", 1000, cols)
	tw := schema.TableWorkload{Table: tab, Queries: []schema.TableQuery{
		{ID: "q", Weight: 1, Attrs: tab.AllAttrs()},
	}}
	tr := &Trojan{MaxReferencedAttrs: 20}
	// The refusal is typed: a portfolio tells "Trojan declines this width"
	// from a failure by the sentinel.
	if _, err := tr.Partition(tw, model()); !errors.Is(err, algo.ErrDeclined) {
		t.Errorf("25 referenced attrs with cap 20: err = %v, want algo.ErrDeclined", err)
	}
}

func TestUnreferencedOnlyTable(t *testing.T) {
	tw := workload(t, 3) // no queries at all
	res, err := New().Partition(tw, model())
	if err != nil {
		t.Fatal(err)
	}
	if res.Partitioning.NumParts() != 1 {
		t.Errorf("layout = %s, want one unreferenced group", res.Partitioning)
	}
	if res.Cost != 0 {
		t.Errorf("cost = %v", res.Cost)
	}
}
