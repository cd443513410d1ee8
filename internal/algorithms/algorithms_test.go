// Package algorithms_test cross-validates all seven algorithms against the
// paper's qualitative results on the real TPC-H and SSB workloads.
package algorithms_test

import (
	"math"
	"math/rand"
	"testing"

	"knives/internal/algo"
	"knives/internal/algo/bruteforce"
	"knives/internal/algo/hillclimb"
	"knives/internal/algo/trojan"
	"knives/internal/algorithms"
	"knives/internal/attrset"
	"knives/internal/cost"
	"knives/internal/partition"
	"knives/internal/schema"
)

func hdd() cost.Model { return cost.NewHDD(cost.DefaultDisk()) }

func TestByName(t *testing.T) {
	for _, want := range []string{"AutoPart", "HillClimb", "HYRISE", "Navathe", "O2P", "Trojan", "BruteForce"} {
		a, err := algorithms.ByName(want)
		if err != nil {
			t.Fatalf("ByName(%s): %v", want, err)
		}
		if a.Name() != want {
			t.Errorf("ByName(%s).Name() = %s", want, a.Name())
		}
	}
	if _, err := algorithms.ByName("nope"); err == nil {
		t.Error("ByName accepted an unknown name")
	}
	if got := len(algorithms.Heuristics()); got != 6 {
		t.Errorf("Heuristics() has %d entries, want 6", got)
	}
}

// Every algorithm must produce a valid partitioning for every TPC-H and SSB
// table under every device, and its reported cost must equal an
// independent re-evaluation.
func TestAllAlgorithmsProduceValidLayouts(t *testing.T) {
	for _, c := range searchedCells(t) {
		for i, name := range c.knives {
			res := c.results[i]
			if name == "Row" || name == "Column" {
				continue
			}
			where := c.workload + "/" + c.tw.Table.Name + "/" + c.device + "/" + name
			if err := res.Partitioning.Validate(); err != nil {
				t.Errorf("%s: invalid layout: %v", where, err)
			}
			recheck := cost.WorkloadCost(c.model, c.tw, res.Partitioning.Parts)
			if math.Abs(recheck-res.Cost) > 1e-6*math.Max(1, recheck) {
				t.Errorf("%s: reported cost %v != re-evaluated %v", where, res.Cost, recheck)
			}
			if res.Stats.Candidates <= 0 {
				t.Errorf("%s: no candidates counted", where)
			}
		}
	}
}

// Determinism: a second run of every heuristic on Lineitem gives the layout
// the first one did. BruteForce's second run is TestLayoutsGolden's: the
// golden is its first.
func TestAlgorithmsAreDeterministic(t *testing.T) {
	for _, c := range searchedCells(t) {
		if c.workload != "TPC-H" || c.device != "hdd" || c.tw.Table.Name != "lineitem" {
			continue
		}
		for _, a := range algorithms.Heuristics() {
			again, err := a.Partition(c.tw, c.model)
			if err != nil {
				t.Fatalf("%s: %v", a.Name(), err)
			}
			if first := c.result(a.Name()).Partitioning; !first.Equal(again.Partitioning) {
				t.Errorf("%s: non-deterministic layouts\n%s\n%s", a.Name(), first, again.Partitioning)
			}
		}
	}
}

// The fragment-level reduction must agree with raw-attribute enumeration on
// every table narrow enough to enumerate raw, up to block-packing rounding.
func TestFragmentBruteForceMatchesRaw(t *testing.T) {
	model := hdd()
	bench := schema.TPCH(1)
	for _, name := range []string{"customer", "nation", "orders", "part", "partsupp", "region", "supplier"} {
		tw := bench.Workload.ForTable(bench.Table(name))
		frag, err := bruteforce.New().Partition(tw, model)
		if err != nil {
			t.Fatalf("fragment/%s: %v", name, err)
		}
		raw, err := bruteforce.NewRaw(10).Partition(tw, model)
		if err != nil {
			t.Fatalf("raw/%s: %v", name, err)
		}
		if frag.Cost > raw.Cost*1.005+1e-9 {
			t.Errorf("%s: fragment-mode cost %v exceeds raw-mode %v beyond rounding", name, frag.Cost, raw.Cost)
		}
		if raw.Cost > frag.Cost+1e-6 {
			t.Errorf("%s: raw-mode cost %v worse than fragment-mode %v — raw searches a superset", name, raw.Cost, frag.Cost)
		}
	}
}

// Paper Figure 3: Navathe and O2P trail the bottom-up algorithms on the
// full TPC-H workload; every vertically partitioned layout crushes Row.
func TestQualityOrderingOnTPCH(t *testing.T) {
	total := func(name string) float64 {
		var sum float64
		for _, c := range searchedCells(t) {
			if c.workload == "TPC-H" && c.device == "hdd" {
				sum += c.result(name).Cost
			}
		}
		return sum
	}
	hc := total("HillClimb")
	nav := total("Navathe")
	row := total("Row")
	col := total("Column")

	if hc >= nav {
		t.Errorf("HillClimb (%v) should beat Navathe (%v) on full TPC-H", hc, nav)
	}
	if hc >= col {
		t.Errorf("HillClimb (%v) should be at least as good as Column (%v)", hc, col)
	}
	if nav <= col {
		t.Errorf("Navathe (%v) should trail Column (%v) on full TPC-H (paper Fig. 3)", nav, col)
	}
	if row < 3*hc {
		t.Errorf("Row (%v) should be far worse than HillClimb (%v): paper shows ~80%% improvement", row, hc)
	}
	// Paper lesson 4: improvement over Column is single-digit percent.
	if imp := (col - hc) / col; imp < 0 || imp > 0.15 {
		t.Errorf("improvement over Column = %.2f%%, expected small single digits", imp*100)
	}
}

// HillClimb from columns and GreedyMerge must never produce a layout worse
// than column layout (merges are only taken when they improve).
func TestHillClimbNeverWorseThanColumn(t *testing.T) {
	model := hdd()
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		nAttrs := 2 + rng.Intn(8)
		cols := make([]schema.Column, nAttrs)
		for i := range cols {
			cols[i] = schema.Column{Name: string(rune('a' + i)), Size: 1 + rng.Intn(100)}
		}
		tab, err := schema.NewTable("t", int64(1000+rng.Intn(2_000_000)), cols)
		if err != nil {
			t.Fatal(err)
		}
		tw := schema.TableWorkload{Table: tab}
		nq := 1 + rng.Intn(8)
		for q := 0; q < nq; q++ {
			var s attrset.Set
			for a := 0; a < nAttrs; a++ {
				if rng.Intn(2) == 0 {
					s = s.Add(a)
				}
			}
			if s.IsEmpty() {
				s = attrset.Single(rng.Intn(nAttrs))
			}
			tw.Queries = append(tw.Queries, schema.TableQuery{ID: "q", Weight: 1, Attrs: s})
		}
		res, err := hillclimb.New().Partition(tw, model)
		if err != nil {
			t.Fatal(err)
		}
		colCost := cost.WorkloadCost(model, tw, partition.Column(tab).Parts)
		if res.Cost > colCost+1e-9 {
			t.Errorf("trial %d: HillClimb cost %v > column %v", trial, res.Cost, colCost)
		}
	}
}

// Under the main-memory cost model nothing beats column layout (paper,
// Table 6): the bottom-up algorithms must return layouts costing the same
// as Column.
func TestMMModelNothingBeatsColumn(t *testing.T) {
	for _, c := range searchedCells(t) {
		if c.workload != "TPC-H" || c.device != "mm" {
			continue
		}
		colCost := c.result("Column").Cost
		for _, name := range []string{"HillClimb", "AutoPart", "BruteForce"} {
			res := c.result(name)
			if res.Cost > colCost+1e-9 {
				t.Errorf("%s on %s under MM: cost %v > column %v", name, c.tw.Table.Name, res.Cost, colCost)
			}
			if res.Cost < colCost*0.999 {
				t.Errorf("%s on %s under MM: cost %v beats column %v — MM model should make column optimal",
					name, c.tw.Table.Name, res.Cost, colCost)
			}
		}
	}
}

// Navathe and O2P produce order-preserving (contiguous in affinity order)
// layouts; with a single dominant co-access pair they must isolate it.
func TestNavatheIsolatesDominantPair(t *testing.T) {
	tab := schema.MustTable("t", 1_000_000, []schema.Column{
		{Name: "a", Size: 8}, {Name: "b", Size: 8}, {Name: "c", Size: 100}, {Name: "d", Size: 100},
	})
	tw := schema.TableWorkload{Table: tab, Queries: []schema.TableQuery{
		{ID: "q1", Weight: 10, Attrs: attrset.Of(0, 1)},
		{ID: "q2", Weight: 1, Attrs: attrset.Of(2, 3)},
	}}
	for _, name := range []string{"Navathe", "O2P"} {
		a, _ := algorithms.ByName(name)
		res, err := a.Partition(tw, hdd())
		if err != nil {
			t.Fatal(err)
		}
		// {a,b} must be a partition (possibly split, but never mixed with c/d).
		for _, p := range res.Partitioning.Parts {
			if p.Overlaps(attrset.Of(0, 1)) && p.Overlaps(attrset.Of(2, 3)) {
				t.Errorf("%s mixed the two access groups: %s", name, res.Partitioning)
			}
		}
	}
}

// Trojan's threshold controls pruning: with an impossible threshold it
// degenerates to column layout over referenced attributes.
func TestTrojanThresholdExtremes(t *testing.T) {
	bench := schema.TPCH(1)
	tw := bench.Workload.ForTable(bench.Table("partsupp"))
	strict := &trojan.Trojan{Threshold: 1.1}
	res, err := strict.Partition(tw, hdd())
	if err != nil {
		t.Fatal(err)
	}
	// All referenced attrs singled out + one unreferenced group.
	ref := tw.ReferencedAttrs()
	for _, p := range res.Partitioning.Parts {
		if p.Overlaps(ref) && p.Len() != 1 {
			t.Errorf("threshold 1.1 still grouped %v", p)
		}
	}

	loose := &trojan.Trojan{Threshold: 1e-9}
	res2, err := loose.Partition(tw, hdd())
	if err != nil {
		t.Fatal(err)
	}
	// ps_partkey and ps_suppkey are referenced by exactly the same queries:
	// NMI = 1, so any positive threshold keeps them together.
	ps := tw.Table
	pk, sk := ps.AttrIndex("ps_partkey"), ps.AttrIndex("ps_suppkey")
	if res2.Partitioning.PartOf(pk) != res2.Partitioning.PartOf(sk) {
		t.Errorf("loose threshold separated perfectly coupled attrs: %s", res2.Partitioning)
	}
}

// Empty and degenerate workloads must not break any algorithm.
func TestAlgorithmsHandleDegenerateWorkloads(t *testing.T) {
	tab := schema.MustTable("t", 1000, []schema.Column{
		{Name: "a", Size: 4}, {Name: "b", Size: 4},
	})
	cases := []schema.TableWorkload{
		{Table: tab}, // no queries
		{Table: tab, Queries: []schema.TableQuery{{ID: "q", Weight: 1, Attrs: attrset.Of(0, 1)}}},
		{Table: tab, Queries: []schema.TableQuery{{ID: "q", Weight: 1, Attrs: attrset.Of(0)}}},
	}
	for ci, tw := range cases {
		for _, a := range algorithms.All() {
			res, err := a.Partition(tw, hdd())
			if err != nil {
				t.Errorf("case %d, %s: %v", ci, a.Name(), err)
				continue
			}
			if err := res.Partitioning.Validate(); err != nil {
				t.Errorf("case %d, %s: %v", ci, a.Name(), err)
			}
		}
	}
}

// A one-attribute table has exactly one layout; everyone must find it.
func TestSingleAttributeTable(t *testing.T) {
	tab := schema.MustTable("t", 10, []schema.Column{{Name: "a", Size: 4}})
	tw := schema.TableWorkload{Table: tab, Queries: []schema.TableQuery{
		{ID: "q", Weight: 1, Attrs: attrset.Of(0)},
	}}
	for _, a := range algorithms.All() {
		res, err := a.Partition(tw, hdd())
		if err != nil {
			t.Fatalf("%s: %v", a.Name(), err)
		}
		if res.Partitioning.NumParts() != 1 {
			t.Errorf("%s: %d parts for 1-attr table", a.Name(), res.Partitioning.NumParts())
		}
	}
}

// BruteForce refuses workloads beyond its atom cap instead of hanging.
func TestBruteForceCap(t *testing.T) {
	cols := make([]schema.Column, 20)
	for i := range cols {
		cols[i] = schema.Column{Name: string(rune('a' + i)), Size: 4}
	}
	tab := schema.MustTable("wide", 1000, cols)
	tw := schema.TableWorkload{Table: tab}
	// 20 queries each referencing a unique single attribute -> 20 fragments.
	for i := 0; i < 20; i++ {
		tw.Queries = append(tw.Queries, schema.TableQuery{ID: "q", Weight: 1, Attrs: attrset.Single(i)})
	}
	if _, err := bruteforce.New().Partition(tw, hdd()); err == nil {
		t.Error("BruteForce accepted 20 atoms")
	}
}

// Candidate counters must reflect the search-space hierarchy on Lineitem:
// heuristics << Trojan << BruteForce.
func TestCandidateCountHierarchy(t *testing.T) {
	counts := map[string]int64{}
	for _, c := range searchedCells(t) {
		if c.workload == "TPC-H" && c.device == "hdd" && c.tw.Table.Name == "lineitem" {
			for _, a := range algorithms.All() {
				counts[a.Name()] = c.result(a.Name()).Stats.Candidates
			}
		}
	}
	if !(counts["HillClimb"] < counts["Trojan"] && counts["Trojan"] < counts["BruteForce"]) {
		t.Errorf("candidate hierarchy violated: %v", counts)
	}
	if counts["BruteForce"] < 1_000_000 {
		t.Errorf("BruteForce evaluated only %d candidates on lineitem", counts["BruteForce"])
	}
}

var _ algo.Algorithm = (*bruteforce.BruteForce)(nil)
