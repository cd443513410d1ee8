package advisor

import (
	"math"
	"runtime"
	"slices"
	"testing"

	"knives/internal/algo"
	"knives/internal/cost"
	"knives/internal/schema"
	"knives/internal/workgen"
)

// adviseSequential is the pre-refactor façade loop, retained as the oracle:
// the concurrent portfolio fan-out must be indistinguishable from running
// the six heuristics in order, table by table.
func adviseSequential(b *schema.Benchmark, m cost.Model) ([]TableAdvice, error) {
	var out []TableAdvice
	for _, tw := range b.TableWorkloads() {
		adv, err := sixKnifeAdvice(tw, m)
		if err != nil {
			return nil, err
		}
		out = append(out, adv)
	}
	return out, nil
}

func TestAdviseMatchesSequentialReference(t *testing.T) {
	bench := schema.TPCH(1)
	m := cost.NewHDD(cost.DefaultDisk())
	got, err := Advise(bench, m)
	if err != nil {
		t.Fatal(err)
	}
	want, err := adviseSequential(bench, m)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d advice entries, want %d", len(got), len(want))
	}
	byName := make(map[string]TableAdvice, len(want))
	for _, w := range want {
		byName[w.Table.Name] = w
	}
	for _, g := range got {
		w, ok := byName[g.Table.Name]
		if !ok {
			t.Fatalf("unexpected table %s", g.Table.Name)
		}
		if g.Algorithm != w.Algorithm || g.Cost != w.Cost ||
			g.RowCost != w.RowCost || g.ColumnCost != w.ColumnCost {
			t.Errorf("%s: got (%s, %v), want (%s, %v)", g.Table.Name, g.Algorithm, g.Cost, w.Algorithm, w.Cost)
		}
		if !g.Layout.Equal(w.Layout) {
			t.Errorf("%s: layout %s, want %s", g.Table.Name, g.Layout, w.Layout)
		}
		if len(g.PerAlgorithm) != len(PortfolioNames()) {
			t.Errorf("%s: per-algorithm costs %v, want one per served knife %v", g.Table.Name, g.PerAlgorithm, PortfolioNames())
		}
		for _, name := range PortfolioNames() {
			if c, ok := g.PerAlgorithm[name]; !ok || c != w.PerAlgorithm[name] {
				t.Errorf("%s/%s: cost %v, want %v", g.Table.Name, name, c, w.PerAlgorithm[name])
			}
		}
	}
}

// The ledger behind serving three knives: on every device, served advice
// equals the six-heuristic advice — layout parts in order, algorithm and
// cost bits — on the shapes the service is benchmarked with: the
// advise-search tables, the mixed workload's cold widths 8/12/16, every
// TPC-H and SSB table at sf 10, and the drift-cycle table under its
// registered workload and its drifted one. DESIGN.md's Portfolio paragraph
// rests on this; if it fails, the cut changed advice.
func TestServedPortfolioLedger(t *testing.T) {
	sample := workgen.Shaped(500, []int{8, 12, 16, 18, 20}, 1)
	sample = append(sample, workgen.Shaped(150, []int{8, 12, 16}, 2)...)
	sample = append(sample, schema.TPCH(10).TableWorkloads()...)
	sample = append(sample, schema.SSB(10).TableWorkloads()...)
	drift := wideTable(t)
	sample = append(sample, coAccessWorkload(drift), schema.TableWorkload{Table: drift, Queries: singleColumnBatch()})
	for _, m := range []cost.Model{cost.NewHDD(cost.DefaultDisk()), cost.NewSSD(), cost.NewMM()} {
		t.Run(m.Name(), func(t *testing.T) {
			served := make([]TableAdvice, len(sample))
			six := make([]TableAdvice, len(sample))
			workers := runtime.GOMAXPROCS(0)
			err := algo.FanOut(workers, func(w int) error {
				for i := w; i < len(sample); i += workers {
					var err error
					if served[i], err = AdviseTable(sample[i], m); err != nil {
						return err
					}
					if six[i], err = sixKnifeAdvice(sample[i], m); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			mismatches := 0
			for i, got := range served {
				want := six[i]
				if got.Algorithm != want.Algorithm || math.Float64bits(got.Cost) != math.Float64bits(want.Cost) ||
					got.Layout.Table != want.Layout.Table || !slices.Equal(got.Layout.Parts, want.Layout.Parts) {
					mismatches++
					t.Errorf("%s: served %s %v at %v, six knives %s %v at %v", sample[i].Table.Name,
						got.Algorithm, got.Layout, got.Cost, want.Algorithm, want.Layout, want.Cost)
				}
			}
			t.Logf("%d of %d tables advised identically", len(sample)-mismatches, len(sample))
		})
	}
}

func TestAdviseIsDeterministicAcrossRuns(t *testing.T) {
	bench := schema.TPCH(1)
	m := cost.NewHDD(cost.DefaultDisk())
	first, err := Advise(bench, m)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 3; trial++ {
		again, err := Advise(bench, m)
		if err != nil {
			t.Fatal(err)
		}
		for i := range first {
			if first[i].Algorithm != again[i].Algorithm || first[i].Cost != again[i].Cost ||
				!first[i].Layout.Equal(again[i].Layout) {
				t.Fatalf("trial %d: advice for %s changed across runs", trial, first[i].Table.Name)
			}
		}
	}
}

func TestAdviseValidatesInput(t *testing.T) {
	if _, err := Advise(nil, nil); err == nil {
		t.Error("Advise accepted a nil benchmark")
	}
	if _, err := AdviseTable(schema.TableWorkload{}, nil); err == nil {
		t.Error("AdviseTable accepted a nil table")
	}
}

func TestAdviseTableNilModelDefaultsToHDD(t *testing.T) {
	bench := schema.TPCH(0.01)
	tw := bench.Workload.ForTable(bench.Table("region"))
	adv, err := AdviseTable(tw, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := AdviseTable(tw, cost.NewHDD(cost.DefaultDisk()))
	if err != nil {
		t.Fatal(err)
	}
	if adv.Cost != want.Cost || !adv.Layout.Equal(want.Layout) {
		t.Errorf("nil model advice differs from default HDD advice")
	}
}
