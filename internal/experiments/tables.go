package experiments

import (
	"knives/internal/algorithms"
	"knives/internal/cost"
	"knives/internal/experiments/compress"
	"knives/internal/metrics"
	"knives/internal/partition"
	"knives/internal/schema"
	"knives/internal/storage"
)

// Tab5 reproduces Table 5: estimated improvement over column layout on
// TPC-H vs the Star Schema Benchmark for every algorithm.
func Tab5(s *Suite) (*Report, error) {
	if err := s.Prewarm(evaluatedAlgorithms...); err != nil {
		return nil, err
	}
	r := &Report{
		ID:     "tab5",
		Title:  "Estimated improvement over Column with different benchmarks",
		Header: []string{"algorithm", "TPC-H", "SSB"},
	}
	ssb := s.SSB
	if ssb == nil {
		ssb = schema.SSB(10)
	}
	m := s.model()
	colTPCH := layoutCost(s.Bench, m, partition.Column)
	colSSB := layoutCost(ssb, m, partition.Column)
	for _, name := range evaluatedAlgorithms {
		tpchRS, err := s.results(name)
		if err != nil {
			return nil, err
		}
		a, err := algorithms.ByName(name)
		if err != nil {
			return nil, err
		}
		ssbRS, err := runAll(a, ssb, m)
		if err != nil {
			return nil, err
		}
		r.AddRow(name,
			fmtPercent(metrics.Improvement(colTPCH, totalCost(tpchRS))),
			fmtPercent(metrics.Improvement(colSSB, totalCost(ssbRS))))
	}
	r.AddNote("paper: SSB's less fragmented access patterns allow ~5%% improvement vs ~3.7%% on TPC-H — still not dramatic")
	return r, nil
}

// Tab6 reproduces Table 6: estimated improvement over column layout under
// the disk (HDD) vs the main-memory (MM) cost model.
func Tab6(s *Suite) (*Report, error) {
	if err := s.Prewarm(evaluatedAlgorithms...); err != nil {
		return nil, err
	}
	r := &Report{
		ID:     "tab6",
		Title:  "Estimated improvement over Column with different cost models",
		Header: []string{"algorithm", "HDD cost model", "MM cost model"},
	}
	hdd := s.model()
	mm := cost.NewMM()
	colHDD := layoutCost(s.Bench, hdd, partition.Column)
	colMM := layoutCost(s.Bench, mm, partition.Column)
	for _, name := range evaluatedAlgorithms {
		hddRS, err := s.results(name)
		if err != nil {
			return nil, err
		}
		mmRS, err := s.searched(name, mm)
		if err != nil {
			return nil, err
		}
		r.AddRow(name,
			fmtPercent(metrics.Improvement(colHDD, totalCost(hddRS))),
			fmtPercent(metrics.Improvement(colMM, totalCost(mmRS))))
	}
	r.AddNote("paper: in main memory no algorithm beats column layout; Navathe/O2P are clearly worse")
	return r, nil
}

// Tab7 reproduces Table 7: TPC-H workload runtimes in a column store with
// column grouping (the paper's DBMS-X) for Row, Column, and the HillClimb
// layout, under the default (LZ/delta) and dictionary compression schemes.
//
// The commercial system is simulated: per-column compression ratios are
// measured on generated data with the corresponding codecs, I/O time is
// charged on the compressed byte volumes by the unified cost model, and
// variable-length encodings pay a per-tuple reconstruction CPU penalty
// inside multi-column groups (the effect the paper identifies as the cause
// of the Column-vs-HillClimb gap).
func Tab7(s *Suite) (*Report, error) {
	r := &Report{
		ID:     "tab7",
		Title:  "Simulated DBMS-X workload runtimes (s) per layout and compression scheme",
		Header: []string{"compression", "Row", "Column", "HillClimb"},
	}
	const (
		sampleRows = 4096
		joinCPU    = 20e-9 // seconds per variable-length column boundary per tuple
	)
	gen := storage.NewGenerator(2013)
	hcRS, err := s.results("HillClimb")
	if err != nil {
		return nil, err
	}
	tws := s.Bench.TableWorkloads()

	for _, scheme := range []compress.CompressionScheme{compress.SchemeDefault, compress.SchemeDictionary} {
		totals := map[string]float64{}
		for i, tw := range tws {
			ratios, err := compress.CompressionRatios(tw.Table, gen, sampleRows, scheme)
			if err != nil {
				return nil, err
			}
			layouts := map[string][]schema.Set{
				"Row":       partition.Row(tw.Table).Parts,
				"Column":    partition.Column(tw.Table).Parts,
				"HillClimb": hcRS[i].Partitioning.Parts,
			}
			for name, parts := range layouts {
				totals[name] += compress.CompressedScanSeconds(tw, parts, s.Disk, ratios, scheme, joinCPU)
			}
		}
		r.AddRow(scheme.String(), fmtSeconds(totals["Row"]), fmtSeconds(totals["Column"]), fmtSeconds(totals["HillClimb"]))
	}
	r.AddNote("paper (measured on DBMS-X): default 1652/377/450 s, dictionary 1265/511/532 s — Column wins, dictionary narrows the gap")
	r.AddNote("substitution: flate/delta/dictionary codecs on synthetic data; see DESIGN.md")
	return r, nil
}
