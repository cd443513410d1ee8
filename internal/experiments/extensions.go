package experiments

import (
	"fmt"
	"strings"

	"knives/internal/algo/autopart"
	"knives/internal/algo/hillclimb"
	"knives/internal/algo/navathe"
	"knives/internal/algo/trojan"
	"knives/internal/cost"
	"knives/internal/metrics"
	"knives/internal/replay"
	"knives/internal/schema"
	"knives/internal/storage"
	"knives/internal/workgen"
)

// The ext* experiments reproduce results the paper states in prose rather
// than as numbered artifacts, and restore features the unified setting
// stripped. They are registered alongside the figures and tables.

// ExtSelectivity probes the Section 7 claim: "putting the selection
// attributes in a different partition ... affects the data layouts only
// when the selectivity is higher than 1e-4 for uniformly distributed
// datasets." For each selectivity, HillClimb runs on Lineitem under the
// selection-aware cost model (predicate on l_shipdate) and the report says
// whether the layout deviates from the selection-free optimum. The executed
// columns run that selectivity's advised layout as σ/π/⋈ pipelines with the
// date predicate pushed into the scans: the σ scales the rows the root
// emits with the bound, while the common-granularity rule keeps the
// physical I/O — and therefore the zero-tolerance executed cost — identical
// across all selectivities.
func ExtSelectivity(s *Suite) (*Report, error) {
	r := &Report{
		ID:     "ext-selectivity",
		Title:  "Selection-aware layouts: when does the predicate change the layout? (Lineitem)",
		Header: []string{"selectivity", "layout differs?", "estd. cost (s)", "parts", "executed (s)", "rows kept"},
	}
	li := s.Bench.Table("lineitem")
	tw := s.Bench.Workload.ForTable(li)
	selAttr := li.AttrIndex("l_shipdate")

	base, err := hillclimb.New().Partition(tw, cost.NewHDD(s.Disk))
	if err != nil {
		return nil, err
	}
	exact, ioInvariant, ioSeen := true, true, false
	var bytesRead, seeks int64
	for _, sel := range []float64{1, 1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6} {
		m := cost.NewSelective(s.Disk, selAttr, sel)
		res, err := hillclimb.New().Partition(tw, m)
		if err != nil {
			return nil, err
		}
		differs := "no"
		if !res.Partitioning.Equal(base.Partitioning) {
			differs = "yes"
		}
		rep, err := replay.Operators(tw, res.Partitioning, "HillClimb", s.sampleConfig(executedSampleRows),
			&replay.Selection{Attr: selAttr, Bound: uint32(sel * storage.DateDomain)})
		if err != nil {
			return nil, err
		}
		exact = exact && rep.Exact()
		// I/O is a function of the layout alone, never the bound: compare
		// the rows sharing the selection-free optimum's layout.
		if differs == "no" {
			if !ioSeen {
				bytesRead, seeks, ioSeen = rep.BytesRead, rep.Seeks, true
			} else {
				ioInvariant = ioInvariant && bytesRead == rep.BytesRead && seeks == rep.Seeks
			}
		}
		r.AddRow(fmt.Sprintf("%.0e", sel), differs, fmtSeconds(res.Cost),
			fmt.Sprintf("%d", res.Partitioning.NumParts()),
			fmtSeconds(rep.MeasuredTotal), fmt.Sprintf("%d", rep.Queries[0].Stats.Tuples))
	}
	r.AddNote("paper (Section 7): selection predicates affect layouts only beyond ~1e-4 selectivity on uniform data")
	r.AddNote("executed: σ(l_shipdate<bound) pushed into pipelines over %d-row samples; measured == predicted for every selectivity: %v", int64(executedSampleRows), exact)
	r.AddNote("common granularity from the execution side: same-layout rows read identical bytes and seeks at every bound (only rows kept changes): %v", ioInvariant)
	return r, nil
}

// ExtWorkloadDrift reproduces the Section 6.3 aside: "query workload costs
// change by only 14% for up to 50% change in query workload." Layouts are
// optimized for the original TPC-H workload; the workload then drifts by a
// fraction, and the report shows (a) the stale layout's cost change and
// (b) its regret against re-optimizing for the drifted workload.
func ExtWorkloadDrift(s *Suite) (*Report, error) {
	r := &Report{
		ID:     "ext-drift",
		Title:  "Fragility to workload change (HillClimb layouts, per-table drift)",
		Header: []string{"drift", "cost change", "regret vs re-optimized"},
	}
	m := s.model()
	rs, err := s.results("HillClimb")
	if err != nil {
		return nil, err
	}
	tws := s.Bench.TableWorkloads()
	baseCost := totalCost(rs)
	for _, frac := range []float64{0.1, 0.25, 0.5} {
		var staleCost, freshCost float64
		for i, tw := range tws {
			drifted := workgen.Drift(tw, frac, 42)
			staleCost += cost.WorkloadCost(m, drifted, rs[i].Partitioning.Parts)
			res, err := hillclimb.New().Partition(drifted, m)
			if err != nil {
				return nil, err
			}
			freshCost += res.Cost
		}
		change := (staleCost - baseCost) / baseCost
		regret := 0.0
		if freshCost > 0 {
			regret = (staleCost - freshCost) / freshCost
		}
		r.AddRow(fmtPercent(frac), fmtPercent(change), fmtPercent(regret))
	}
	r.AddNote("paper (Section 6.3): workload costs change by only ~14%% for up to 50%% workload change")
	return r, nil
}

// ExtConvergence tests the Section 2 convergence claims with generated
// workloads: top-down algorithms converge faster (fewer candidates) on
// highly regular access patterns, bottom-up algorithms on highly
// fragmented ones.
func ExtConvergence(s *Suite) (*Report, error) {
	r := &Report{
		ID:     "ext-convergence",
		Title:  "Search effort vs workload fragmentation (16-attr table, 24 generated queries)",
		Header: []string{"fragmentation", "HillClimb candidates", "Navathe candidates", "HillClimb cost", "Navathe cost"},
	}
	cols := make([]schema.Column, 16)
	for i := range cols {
		cols[i] = schema.Column{Name: fmt.Sprintf("a%02d", i), Size: 8}
	}
	tab, err := schema.NewTable("gen", 10_000_000, cols)
	if err != nil {
		return nil, err
	}
	m := s.model()
	for _, frag := range []float64{0, 0.25, 0.5, 0.75, 1} {
		tw, err := workgen.Generate(tab, workgen.Config{
			Queries: 24, Fragmentation: frag, MeanAttrs: 5, Seed: 2013,
		})
		if err != nil {
			return nil, err
		}
		hc, err := hillclimb.New().Partition(tw, m)
		if err != nil {
			return nil, err
		}
		nv, err := navathe.New().Partition(tw, m)
		if err != nil {
			return nil, err
		}
		r.AddRow(fmt.Sprintf("%.2f", frag),
			fmt.Sprintf("%d", hc.Stats.Candidates),
			fmt.Sprintf("%d", nv.Stats.Candidates),
			fmtSeconds(hc.Cost), fmtSeconds(nv.Cost))
	}
	r.AddNote("paper (Section 2): top-down converges faster on regular patterns, bottom-up on fragmented ones")
	return r, nil
}

// ExtGrouping restores Trojan's query grouping: with R fully replicated
// copies of the data (HDFS-style), the workload is clustered into R query
// groups and each replica carries a layout specialized for its group. The
// report sweeps the replica count on Lineitem and shows how the total cost
// approaches the perfect materialized views as replicas grow.
func ExtGrouping(s *Suite) (*Report, error) {
	r := &Report{
		ID:     "ext-grouping",
		Title:  "Trojan query grouping: one layout per replica (Lineitem)",
		Header: []string{"replicas", "estd. cost (s)", "distance from PMV", "groups"},
	}
	li := s.Bench.Table("lineitem")
	tw := s.Bench.Workload.ForTable(li)
	m := s.model()
	pmv := metrics.PMVCost(tw, m)
	for _, replicas := range []int{1, 2, 3, 4} {
		res, err := trojan.NewGrouped(replicas).Partition(tw, m)
		if err != nil {
			return nil, err
		}
		var sizes []string
		for _, g := range res.Groups {
			sizes = append(sizes, fmt.Sprintf("%d", len(g.QueryIDs)))
		}
		r.AddRow(fmt.Sprintf("%d", replicas), fmtSeconds(res.Cost),
			fmtPercent(metrics.DistanceFromPMV(res.Cost, pmv)),
			strings.Join(sizes, "+"))
	}
	r.AddNote("paper (Section 3): Trojan maps query groups to HDFS replicas; specialization narrows the PMV gap at full-replication storage cost")
	return r, nil
}

// ExtReplication restores AutoPart's partial replication (stripped by the
// unified setting) and sweeps the storage budget on Lineitem, reporting
// the cost against the disjoint optimum and the perfect materialized
// views — the two extremes the paper's Figure 6 frames.
func ExtReplication(s *Suite) (*Report, error) {
	r := &Report{
		ID:     "ext-replication",
		Title:  "AutoPart with partial replication: storage budget vs workload cost (Lineitem)",
		Header: []string{"budget", "estd. cost (s)", "storage overhead", "distance from PMV"},
	}
	li := s.Bench.Table("lineitem")
	tw := s.Bench.Workload.ForTable(li)
	m := s.model()
	pmv := metrics.PMVCost(tw, m)
	for _, budget := range []float64{0, 0.1, 0.25, 0.5, 1.0} {
		res, err := autopart.NewReplicated(budget).Partition(tw, m)
		if err != nil {
			return nil, err
		}
		r.AddRow(fmtPercent(budget), fmtSeconds(res.Cost),
			fmtPercent(res.Layout.ReplicationOverhead()),
			fmtPercent(metrics.DistanceFromPMV(res.Cost, pmv)))
	}
	r.AddNote("paper (Section 4): replication re-opens partition selection; the budget sweep shows how much of the PMV gap replication buys")
	return r, nil
}
