package algo

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"knives/internal/attrset"
	"knives/internal/cost"
	"knives/internal/partition"
	"knives/internal/schema"
	"knives/internal/workgen"
)

// The size-vector GreedyMerge must reproduce the reference implementation
// bit for bit: same layouts, same costs (==, not approximately), same
// candidate counts. Anything less would silently change every figure that
// HillClimb, AutoPart, or HYRISE contributes to.
func checkGreedyEquivalence(t *testing.T, label string, tw schema.TableWorkload, m cost.Model, start []attrset.Set) {
	t.Helper()
	checkClusteredEquivalence(t, label, tw, m, start, nil)
}

// checkClusteredEquivalence compares GreedyMergeClustered (GreedyMerge when
// clusters is nil) with its full-evaluation oracle.
func checkClusteredEquivalence(t *testing.T, label string, tw schema.TableWorkload, m cost.Model, start, clusters []attrset.Set) {
	t.Helper()
	var cInc, cRef Counter
	gotParts, gotCost := GreedyMergeClustered(tw, m, start, clusters, &cInc)
	wantParts, wantCost := greedyMergeClusteredReference(tw, m, start, clusters, &cRef)
	if math.Float64bits(gotCost) != math.Float64bits(wantCost) {
		t.Errorf("%s: incremental cost %v != reference %v", label, gotCost, wantCost)
	}
	if cInc.Count() != cRef.Count() {
		t.Errorf("%s: incremental candidates %d != reference %d", label, cInc.Count(), cRef.Count())
	}
	if !slices.Equal(gotParts, wantParts) {
		t.Fatalf("%s: incremental parts %v != reference %v", label, gotParts, wantParts)
	}
}

func TestGreedyMergeMatchesReferenceOnBenchmarks(t *testing.T) {
	models := []cost.Model{cost.NewHDD(cost.DefaultDisk()), cost.NewMM()}
	for _, bench := range []*schema.Benchmark{schema.TPCH(10), schema.SSB(10)} {
		for _, tw := range bench.TableWorkloads() {
			for _, m := range models {
				label := fmt.Sprintf("%s/%s/%s", bench.Name, tw.Table.Name, m.Name())
				checkGreedyEquivalence(t, label+"/column", tw, m, partition.Column(tw.Table).Parts)
				checkGreedyEquivalence(t, label+"/fragments", tw, m, partition.Fragments(tw))
			}
		}
	}
}

func TestGreedyMergeMatchesReferenceOnRandomWorkloads(t *testing.T) {
	cols := make([]schema.Column, 14)
	for i := range cols {
		cols[i] = schema.Column{Name: fmt.Sprintf("c%d", i), Size: 1 + (i*7)%40}
	}
	tab := schema.MustTable("rand", 2_000_000, cols)
	m := cost.NewHDD(cost.DefaultDisk())
	for seed := int64(1); seed <= 8; seed++ {
		for _, frag := range []float64{0, 0.4, 1} {
			tw, err := workgen.Generate(tab, workgen.Config{
				Queries: 12, Fragmentation: frag, MeanAttrs: 4, Seed: seed,
			})
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("seed%d/frag%v", seed, frag)
			checkGreedyEquivalence(t, label, tw, m, partition.Column(tab).Parts)
		}
	}
}

// Zero-query workloads must not diverge either (every merge prices to 0).
func TestGreedyMergeMatchesReferenceOnEmptyWorkload(t *testing.T) {
	tab := schema.MustTable("t", 1000, []schema.Column{
		{Name: "a", Size: 4}, {Name: "b", Size: 8}, {Name: "c", Size: 2},
	})
	tw := schema.TableWorkload{Table: tab}
	checkGreedyEquivalence(t, "empty", tw, cost.NewHDD(cost.DefaultDisk()), partition.Column(tab).Parts)
}

// A pooled evaluator carries its price memo from one search to the next; a
// price cached for one table must never answer for another. Alternating
// two tables that differ only in row count makes every (rowSize,
// totalRowSize) pair of one search a key the other search has cached.
func TestGreedyMergeReusesNoPriceAcrossTables(t *testing.T) {
	cols := make([]schema.Column, 12)
	for i := range cols {
		cols[i] = schema.Column{Name: fmt.Sprintf("c%d", i), Size: 1 + (i*13)%50}
	}
	for _, m := range []cost.Model{cost.NewHDD(cost.DefaultDisk()), cost.NewSSD(), cost.NewMM()} {
		for round := 0; round < 3; round++ {
			for _, rows := range []int64{3_000_000, 50_000, 700_000} {
				tab := schema.MustTable("t", rows, cols)
				tw, err := workgen.Generate(tab, workgen.Config{Queries: 20, Fragmentation: 0.5, MeanAttrs: 4, Seed: 3})
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("%s/round%d/rows%d", m.Name(), round, rows)
				checkGreedyEquivalence(t, label, tw, m, partition.Column(tab).Parts)
			}
		}
	}
}

// drawGreedyCase builds one GreedyMergeClustered input from fuzz parameters:
// a table of 1-64 columns of widths 1-200; 0-40 queries of any shape, empty
// ones included, weighted 0, fractionally or up to 100; one of eight models
// (HDD, SSD, MM presets; an HDD whose buffer is smaller than a block; a
// random block device; an SSD whose buffer times a row size passes int64;
// an MM with its own cache geometry; the selection-aware model, which is
// not a cost.PartitionCoster); a Column, Fragments or random start layout;
// and, for odd clusterPick, a random grouping of the start parts into
// HYRISE-style clusters.
func drawGreedyCase(t *testing.T, seed int64, colPick, queryPick, modelPick, startPick, clusterPick uint8) (schema.TableWorkload, cost.Model, []attrset.Set, []attrset.Set) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	cols := make([]schema.Column, 1+int(colPick)%attrset.MaxAttrs)
	for i := range cols {
		cols[i] = schema.Column{Name: fmt.Sprintf("c%d", i), Size: 1 + rng.Intn(200)}
	}
	rows := rng.Int63n(10_000_000)
	if rng.Intn(8) == 0 {
		rows = 0
	}
	tab := schema.MustTable("f", rows, cols)
	weights := []float64{0, 1, 0.5, 1.0 / 3, 2.75, 0.1}
	tw := schema.TableWorkload{Table: tab}
	for k := 0; k < int(queryPick)%41; k++ {
		density := rng.Float64()
		var attrs attrset.Set
		for a := range cols {
			if rng.Float64() < density {
				attrs = attrs.Add(a)
			}
		}
		w := rng.Float64() * 100
		if i := rng.Intn(len(weights) + 1); i < len(weights) {
			w = weights[i]
		}
		tw.Queries = append(tw.Queries, schema.TableQuery{ID: fmt.Sprintf("q%d", k), Weight: w, Attrs: attrs})
	}

	var m cost.Model
	var err error
	block := int64(64) << rng.Intn(9)
	switch modelPick % 8 {
	case 0:
		m, err = cost.ModelByName("hdd", cost.Device{})
	case 1:
		m, err = cost.ModelByName("ssd", cost.Device{})
	case 2:
		m, err = cost.ModelByName("mm", cost.Device{})
	case 3:
		m, err = cost.ModelByName("hdd", cost.Device{BlockSize: block, BufferSize: 1 + rng.Int63n(block-1)})
	case 4:
		m, err = cost.ModelByName("hdd", cost.Device{
			BlockSize: block, BufferSize: 1 + rng.Int63n(1<<30),
			ReadBandwidth: 1e6 + rng.Float64()*1e9, SeekTime: rng.Float64() * 1e-2,
		})
	case 5:
		m, err = cost.ModelByName("ssd", cost.Device{BufferSize: 1<<62 + rng.Int63n(1<<62)})
	case 6:
		m, err = cost.ModelByName("mm", cost.Device{CacheLineSize: 1 + rng.Int63n(256), MissLatency: rng.Float64() * 1e-6})
	default:
		m = cost.NewSelective(cost.DefaultDisk(), rng.Intn(len(cols)), rng.Float64()*0.01)
	}
	if err != nil {
		t.Fatal(err)
	}

	var start []attrset.Set
	switch startPick % 3 {
	case 0:
		start = partition.Column(tab).Parts
	case 1:
		start = partition.Fragments(tw)
	default:
		groups := make([]attrset.Set, 1+rng.Intn(len(cols)))
		for a := range cols {
			g := rng.Intn(len(groups))
			groups[g] = groups[g].Add(a)
		}
		for _, g := range groups {
			if !g.IsEmpty() {
				start = append(start, g)
			}
		}
	}

	var clusters []attrset.Set
	if clusterPick%2 == 1 {
		k := 1 + rng.Intn(6)
		order := rng.Perm(len(start))
		for len(order) > 0 {
			n := min(k, len(order))
			var member attrset.Set
			for _, pi := range order[:n] {
				member = member.Union(start[pi])
			}
			clusters = append(clusters, member)
			order = order[n:]
		}
	}
	return tw, m, start, clusters
}

// FuzzGreedyMergeVsReference holds the size-vector kernel to the
// full-evaluation oracle: parts in order, cost bits and candidate counts.
func FuzzGreedyMergeVsReference(f *testing.F) {
	f.Add(int64(1), uint8(11), uint8(17), uint8(0), uint8(0), uint8(0))
	f.Add(int64(2), uint8(19), uint8(32), uint8(1), uint8(1), uint8(1))
	f.Add(int64(3), uint8(7), uint8(40), uint8(2), uint8(2), uint8(1))
	f.Add(int64(4), uint8(15), uint8(24), uint8(3), uint8(0), uint8(1))
	f.Add(int64(5), uint8(23), uint8(12), uint8(4), uint8(2), uint8(0))
	f.Add(int64(6), uint8(9), uint8(30), uint8(5), uint8(1), uint8(0))
	f.Add(int64(7), uint8(13), uint8(20), uint8(6), uint8(0), uint8(1))
	f.Add(int64(8), uint8(12), uint8(16), uint8(7), uint8(1), uint8(1))
	f.Add(int64(9), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0))
	f.Add(int64(10), uint8(63), uint8(8), uint8(4), uint8(2), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, colPick, queryPick, modelPick, startPick, clusterPick uint8) {
		tw, m, start, clusters := drawGreedyCase(t, seed, colPick, queryPick, modelPick, startPick, clusterPick)
		checkClusteredEquivalence(t, m.Name(), tw, m, start, clusters)
	})
}

// A search allocates the parts it returns and nothing that grows with its
// candidate count: the evaluator, its per-query state and its price memo
// come from a pool. A 20-column search prices several times the candidates
// of an 8-column one and must allocate no more, on the size-vector path and
// on the QueryCost path alike.
func TestGreedyMergeAllocationsDoNotGrowWithCandidates(t *testing.T) {
	if raceDetector {
		t.Skip("sync.Pool drops pooled evaluators at random under -race")
	}
	workload := func(width int) schema.TableWorkload {
		cols := make([]schema.Column, width)
		for i := range cols {
			cols[i] = schema.Column{Name: fmt.Sprintf("c%d", i), Size: 1 + (i*29)%117}
		}
		tw, err := workgen.Generate(schema.MustTable("t", 1_000_000, cols),
			workgen.Config{Queries: 24, Fragmentation: 0.5, MeanAttrs: width / 4, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		return tw
	}
	narrow, wide := workload(8), workload(20)
	for _, m := range []cost.Model{cost.NewHDD(cost.DefaultDisk()), cost.NewSelective(cost.DefaultDisk(), 0, 0.001)} {
		var counts [2]int64
		var allocs [2]float64
		for i, tw := range []schema.TableWorkload{narrow, wide} {
			start := partition.Column(tw.Table).Parts
			var c Counter
			GreedyMerge(tw, m, start, &c)
			counts[i] = c.Count()
			allocs[i] = testing.AllocsPerRun(20, func() { GreedyMerge(tw, m, start, &Counter{}) })
		}
		if counts[1] < 4*counts[0] {
			t.Fatalf("%s: %d candidates at width 20 vs %d at width 8; the comparison needs a wide gap", m.Name(), counts[1], counts[0])
		}
		if allocs[1] > allocs[0] || allocs[1] > 2 {
			t.Errorf("%s: %v allocations per search at width 20 (%d candidates) vs %v at width 8 (%d candidates)",
				m.Name(), allocs[1], counts[1], allocs[0], counts[0])
		}
	}
}
