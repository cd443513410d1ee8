package o2p

import (
	"math"
	"testing"
	"time"

	"knives/internal/affinity"
	"knives/internal/algo"
	"knives/internal/algo/navathe"
	"knives/internal/attrset"
	"knives/internal/cost"
	"knives/internal/schema"
)

func model() cost.Model { return cost.NewHDD(cost.DefaultDisk()) }

func TestName(t *testing.T) {
	if got := New().Name(); got != "O2P" {
		t.Errorf("Name = %q", got)
	}
}

func workload(t *testing.T, nAttrs int, queries ...schema.TableQuery) schema.TableWorkload {
	t.Helper()
	cols := make([]schema.Column, nAttrs)
	for i := range cols {
		cols[i] = schema.Column{Name: string(rune('a' + i)), Size: 8}
	}
	tab, err := schema.NewTable("t", 1_000_000, cols)
	if err != nil {
		t.Fatal(err)
	}
	return schema.TableWorkload{Table: tab, Queries: queries}
}

// O2P on a clean two-cluster stream separates the clusters like Navathe.
func TestSeparatesClusters(t *testing.T) {
	tw := workload(t, 4,
		schema.TableQuery{ID: "q1", Weight: 1, Attrs: attrset.Of(0, 1)},
		schema.TableQuery{ID: "q2", Weight: 1, Attrs: attrset.Of(2, 3)},
		schema.TableQuery{ID: "q3", Weight: 1, Attrs: attrset.Of(0, 1)},
	)
	res, err := New().Partition(tw, model())
	if err != nil {
		t.Fatal(err)
	}
	if res.Partitioning.PartOf(0).Overlaps(attrset.Of(2, 3)) {
		t.Errorf("clusters share a partition: %s", res.Partitioning)
	}
}

// Query order must not crash the online phase, and any prefix of a stream
// yields a valid layout (the online property).
func TestEveryPrefixYieldsValidLayout(t *testing.T) {
	b := schema.TPCH(1)
	li := b.Table("lineitem")
	for k := 1; k <= len(b.Workload.Queries); k++ {
		tw := b.Workload.Prefix(k).ForTable(li)
		res, err := New().Partition(tw, model())
		if err != nil {
			t.Fatalf("prefix %d: %v", k, err)
		}
		if err := res.Partitioning.Validate(); err != nil {
			t.Errorf("prefix %d: %v", k, err)
		}
	}
}

// O2P and Navathe share the split machinery but differ in clustering
// (incremental vs batch); on the full TPC-H Lineitem workload their costs
// must be in the same band (the paper's Figure 3 shows 481 vs 506).
func TestTracksNavatheQuality(t *testing.T) {
	b := schema.TPCH(10)
	tw := b.Workload.ForTable(b.Table("lineitem"))
	o, err := New().Partition(tw, model())
	if err != nil {
		t.Fatal(err)
	}
	n, err := navathe.New().Partition(tw, model())
	if err != nil {
		t.Fatal(err)
	}
	ratio := o.Cost / n.Cost
	if ratio < 0.7 || ratio > 1.3 {
		t.Errorf("O2P cost %v vs Navathe %v: ratio %v outside ±30%%", o.Cost, n.Cost, ratio)
	}
}

// The memoized analysis must not revisit every segment after each split:
// candidate counts stay linear-ish in attribute count, far below Navathe's
// full re-analysis would be on the same table... both stay small; what we
// pin down is determinism and a sane upper bound.
func TestCandidateBudget(t *testing.T) {
	b := schema.TPCH(1)
	tw := b.Workload.ForTable(b.Table("lineitem"))
	res, err := New().Partition(tw, model())
	if err != nil {
		t.Fatal(err)
	}
	n := tw.Table.NumAttrs()
	// Split-point evaluations are bounded by n per segment creation, with
	// at most 2n-1 segments ever created, plus one cost eval per step.
	limit := int64(2*n*n + 4*n)
	if res.Stats.Candidates > limit {
		t.Errorf("candidates = %d, want <= %d", res.Stats.Candidates, limit)
	}
}

// shadowStream is the drift tracker's view of one table under steady
// /observe traffic: the table's own queries round-robin, with fractional
// weights so a reordered bond sum would change bits.
func shadowStream(tw schema.TableWorkload, n int) []schema.TableQuery {
	out := make([]schema.TableQuery, n)
	for i := range out {
		q := tw.Queries[i%len(tw.Queries)]
		q.Weight = float64(1+i%7) / 3
		out[i] = q
	}
	return out
}

// TestO2PShadowBitIdentical pins the drift shadow against a clustering that
// cannot be served a stale bond: for every query it rebuilds the affinity
// matrix of the prefix from scratch — an empty cache, every bond computed
// by the loop from the rows as they are — and reinserts on that. Layout,
// cost bits and candidate count must be equal on every TPC-H table, under
// every device, at every position of a 256-query sliding window.
func TestO2PShadowBitIdentical(t *testing.T) {
	models := map[string]cost.Model{"hdd": cost.NewHDD(cost.DefaultDisk()), "ssd": cost.NewSSD(), "mm": cost.NewMM()}
	const window, slide, slides = 256, 32, 4
	for _, full := range schema.TPCH(10).TableWorkloads() {
		if len(full.Queries) == 0 {
			continue
		}
		stream := shadowStream(full, window+slide*slides)
		for off := 0; off+window <= len(stream); off += slide {
			tw := schema.TableWorkload{Table: full.Table, Queries: stream[off : off+window]}
			order := make([]int, tw.Table.NumAttrs())
			for i := range order {
				order[i] = i
			}
			var fresh *affinity.Matrix
			for i, q := range tw.Queries {
				fresh = affinity.Build(schema.TableWorkload{Table: tw.Table, Queries: tw.Queries[:i+1]})
				order = fresh.Reinsert(order, q.Attrs)
			}
			for name, m := range models {
				want, err := split(tw, m, fresh, order, time.Now())
				if err != nil {
					t.Fatal(err)
				}
				got, err := New().Partition(tw, m)
				if err != nil {
					t.Fatal(err)
				}
				if !got.Partitioning.Equal(want.Partitioning) ||
					math.Float64bits(got.Cost) != math.Float64bits(want.Cost) ||
					got.Stats.Candidates != want.Stats.Candidates {
					t.Fatalf("%s/%s window@%d: got %v cost %x candidates %d, want %v cost %x candidates %d",
						tw.Table.Name, name, off, got.Partitioning, math.Float64bits(got.Cost), got.Stats.Candidates,
						want.Partitioning, math.Float64bits(want.Cost), want.Stats.Candidates)
				}
			}
		}
	}
}

var sinkResult algo.Result

// BenchmarkO2PShadow is O2P over a raw 256-query window of lineitem, the
// search the drift shadow's raw-log oracle runs. The drift check itself
// folds only the window's 17 distinct attribute sets; BenchmarkDriftCheck
// in internal/advisor times it. bonds/query is how many bond energies the
// clustering computed from matrix rows per query — about |q|·n with the
// cache, where the uncached loop computed 3·|q|·(n+1).
func BenchmarkO2PShadow(b *testing.B) {
	var tw schema.TableWorkload
	for _, w := range schema.TPCH(10).TableWorkloads() {
		if w.Table.Name == "lineitem" {
			tw = schema.TableWorkload{Table: w.Table, Queries: shadowStream(w, 256)}
		}
	}
	m := model()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := New().Partition(tw, m)
		if err != nil {
			b.Fatal(err)
		}
		sinkResult = res
	}
	b.StopTimer()
	am, _ := cluster(tw)
	b.ReportMetric(float64(am.BondsComputed())/float64(len(tw.Queries)), "bonds/query")
}
