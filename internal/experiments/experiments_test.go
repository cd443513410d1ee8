package experiments

import (
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"knives/internal/algo"
	"knives/internal/cost"
	"knives/internal/schema"
)

// parsePercent turns "12.34%" into 0.1234.
func parsePercent(t *testing.T, cell string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(cell, "%"), 64)
	if err != nil {
		t.Fatalf("parse percent %q: %v", cell, err)
	}
	return v / 100
}

func parseFloat(t *testing.T, cell string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(cell, 64)
	if err != nil {
		t.Fatalf("parse float %q: %v", cell, err)
	}
	return v
}

// findRow returns the first row whose first cell equals key.
func findRow(t *testing.T, r *Report, key string) []string {
	t.Helper()
	for _, row := range r.Rows {
		if row[0] == key {
			return row
		}
	}
	t.Fatalf("%s: no row %q", r.ID, key)
	return nil
}

// paper holds each registered experiment's report, run at most once per
// test binary on one suite, so every test of an artifact reads the same
// report and the paper's searches are paid for once.
var paper struct {
	sync.Mutex
	suite *Suite
	runs  map[string]paperRun
}

type paperRun struct {
	rep *Report
	err error
}

// paperReport returns experiment id's report, running it on first use, so
// the order of first uses is the order the suite's caches fill in
// (TestExperimentsAreDeterministic's GOMAXPROCS=1 pass walks the registry
// backwards). Tests read the report and never modify it.
func paperReport(t *testing.T, id string) *Report {
	t.Helper()
	paper.Lock()
	defer paper.Unlock()
	if paper.suite == nil {
		paper.suite = NewSuite()
		paper.suite.Reps = 1
		paper.runs = map[string]paperRun{}
	}
	if _, ok := paper.runs[id]; !ok {
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := e.Run(paper.suite)
		paper.runs[id] = paperRun{rep, err}
	}
	r := paper.runs[id]
	if r.err != nil {
		t.Fatalf("%s: %v", id, r.err)
	}
	return r.rep
}

func TestRegistryCoversEveryPaperArtifact(t *testing.T) {
	want := []string{
		"fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
		"fig9", "fig10", "fig11", "fig12", "fig13", "fig14",
		"tab3", "tab4", "tab5", "tab6", "tab7",
	}
	have := map[string]bool{}
	for _, e := range All() {
		have[e.ID] = true
		if e.Run == nil || e.Description == "" {
			t.Errorf("experiment %s incomplete", e.ID)
		}
	}
	for _, id := range want {
		if !have[id] {
			t.Errorf("missing experiment %s", id)
		}
	}
	if _, err := ByID("nope"); err == nil {
		t.Error("ByID accepted unknown id")
	}
}

// Every registered experiment produces a well-formed report. Its
// Test<ID>Shape test holds it to the paper's claim, TestGoldenReports to
// its golden file.
func TestAllExperimentsRun(t *testing.T) {
	for _, e := range All() {
		t.Run(e.ID, func(t *testing.T) {
			rep := paperReport(t, e.ID)
			if rep.ID != e.ID || len(rep.Rows) == 0 {
				t.Errorf("report ID = %s with %d rows", rep.ID, len(rep.Rows))
			}
			for _, row := range rep.Rows {
				if len(row) != len(rep.Header) {
					t.Errorf("row %v has %d cells, header has %d", row, len(row), len(rep.Header))
				}
			}
			if !strings.Contains(rep.String(), e.ID) {
				t.Error("String() lacks the experiment id")
			}
		})
	}
}

// Figure 1 shape, in candidates rather than seconds: BruteForce considers
// at least 100x the layouts of every heuristic.
func TestFig1Shape(t *testing.T) {
	rep := paperReport(t, "fig1")
	bf := parseFloat(t, findRow(t, rep, "BruteForce")[2])
	for _, row := range rep.Rows {
		if c := parseFloat(t, row[2]); row[0] != "BruteForce" && bf < 100*c {
			t.Errorf("BruteForce candidates %v < 100 x %s's %v", bf, row[0], c)
		}
	}
}

// Figure 2 makes no machine-independent claim: one row per TPC-H query
// prefix, one column per fast knife.
func TestFig2Shape(t *testing.T) {
	rep := paperReport(t, "fig2")
	if len(rep.Rows) != 22 || !slices.Equal(rep.Header[1:], fastAlgorithms) {
		t.Errorf("fig2 has %d rows and columns %v, want 22 rows and %v", len(rep.Rows), rep.Header[1:], fastAlgorithms)
	}
}

// Figure 3 shape: HillClimb = BruteForce <= Column < Navathe << Row.
func TestFig3Shape(t *testing.T) {
	rep := paperReport(t, "fig3")
	get := func(name string) float64 { return parseFloat(t, findRow(t, rep, name)[1]) }
	hc, bf, col, nav, row := get("HillClimb"), get("BruteForce"), get("Column"), get("Navathe"), get("Row")
	if hc != bf {
		t.Errorf("HillClimb (%v) != BruteForce (%v)", hc, bf)
	}
	if !(hc <= col && col < nav && nav < row) {
		t.Errorf("ordering violated: hc=%v col=%v nav=%v row=%v", hc, col, nav, row)
	}
	if row < 4*hc {
		t.Errorf("Row (%v) should dwarf HillClimb (%v)", row, hc)
	}
}

// Figure 4 shape: Row ~84%, Column 0%, HillClimb small, Navathe ~25%.
func TestFig4Shape(t *testing.T) {
	rep := paperReport(t, "fig4")
	get := func(name string) float64 { return parsePercent(t, findRow(t, rep, name)[1]) }
	if v := get("Row"); v < 0.7 || v > 0.95 {
		t.Errorf("Row unnecessary = %v, paper ~0.84", v)
	}
	if v := get("Column"); v != 0 {
		t.Errorf("Column unnecessary = %v, want 0", v)
	}
	if v := get("HillClimb"); v > 0.05 {
		t.Errorf("HillClimb unnecessary = %v, paper ~0.008", v)
	}
	if v := get("Navathe"); v < 0.1 || v > 0.4 {
		t.Errorf("Navathe unnecessary = %v, paper ~0.25", v)
	}
}

// Figure 5 shape: Column joins the most, Row zero, HillClimb performs the
// bulk (>=60%) of Column's joins.
func TestFig5Shape(t *testing.T) {
	rep := paperReport(t, "fig5")
	get := func(name string) float64 { return parseFloat(t, findRow(t, rep, name)[1]) }
	col, row, hc := get("Column"), get("Row"), get("HillClimb")
	if row != 0 {
		t.Errorf("Row joins = %v", row)
	}
	if !(hc > 0.6*col && hc <= col) {
		t.Errorf("HillClimb joins %v vs Column %v: want 60-100%%", hc, col)
	}
}

// Figure 6 shape: HillClimb closest to PMV, Navathe far, Row hundreds of
// percent off.
func TestFig6Shape(t *testing.T) {
	rep := paperReport(t, "fig6")
	get := func(name string) float64 { return parsePercent(t, findRow(t, rep, name)[1]) }
	hc, nav, row := get("HillClimb"), get("Navathe"), get("Row")
	if hc < 0 || hc > 0.25 {
		t.Errorf("HillClimb distance = %v, paper ~0.18", hc)
	}
	if nav < 0.3 {
		t.Errorf("Navathe distance = %v, paper ~0.49", nav)
	}
	if row < 3 {
		t.Errorf("Row distance = %v, paper ~5.17", row)
	}
}

// Figure 7 shape: HillClimb starts >15% and stays positive; Navathe goes
// negative for larger k.
func TestFig7Shape(t *testing.T) {
	rep := paperReport(t, "fig7")
	first := rep.Rows[0]
	last := rep.Rows[len(rep.Rows)-1]
	if v := parsePercent(t, first[1]); v < 0.15 {
		t.Errorf("HillClimb at k=1 = %v, paper ~0.24", v)
	}
	if v := parsePercent(t, last[1]); v <= 0 || v > 0.1 {
		t.Errorf("HillClimb at k=22 = %v, paper ~0.037", v)
	}
	if v := parsePercent(t, last[2]); v >= 0 {
		t.Errorf("Navathe at k=22 = %v, paper ~-0.21", v)
	}
}

// Table 3 shape: HillClimb reads 0% unnecessary for k <= 6; Navathe jumps
// after k = 3.
func TestTab3Shape(t *testing.T) {
	rep := paperReport(t, "tab3")
	for _, row := range rep.Rows {
		if v := parsePercent(t, row[1]); v != 0 {
			t.Errorf("HillClimb unnecessary at k=%s is %v, want 0", row[0], v)
		}
	}
	for _, row := range rep.Rows[:3] {
		if v := parsePercent(t, row[2]); v != 0 {
			t.Errorf("Navathe unnecessary at k=%s is %v, want 0", row[0], v)
		}
	}
	var jumped bool
	for _, row := range rep.Rows[3:] {
		if parsePercent(t, row[2]) > 0.05 {
			jumped = true
		}
	}
	if !jumped {
		t.Error("Navathe never jumped above 5% for k in 4..6 (paper: >30%)")
	}
}

// Table 4 shape: HillClimb joins grow with k; Column joins shrink; exact
// endpoint values match the paper (6.00 at k=1, 3.40 at k=6 for Column).
func TestTab4Shape(t *testing.T) {
	rep := paperReport(t, "tab4")
	if v := parseFloat(t, rep.Rows[0][2]); v != 6.00 {
		t.Errorf("Column joins at k=1 = %v, paper 6.00", v)
	}
	if v := parseFloat(t, rep.Rows[5][2]); v != 3.40 {
		t.Errorf("Column joins at k=6 = %v, paper 3.40", v)
	}
	if v := parseFloat(t, rep.Rows[0][1]); v != 0 {
		t.Errorf("HillClimb joins at k=1 = %v, paper 0.00", v)
	}
	if v := parseFloat(t, rep.Rows[5][1]); v < 1.5 {
		t.Errorf("HillClimb joins at k=6 = %v, paper 2.00", v)
	}
}

// Figure 8 shape: tiny buffers blow runtimes up by large factors; the
// default buffer row is exactly zero; huge buffers help slightly.
func TestFig8Shape(t *testing.T) {
	rep := paperReport(t, "fig8")
	tiny := findRow(t, rep, "0.08 MB")
	for i := 1; i < len(tiny); i++ {
		if v := parseFloat(t, tiny[i]); v < 2 {
			t.Errorf("fragility at 0.08 MB for %s = %v, paper 5-24", rep.Header[i], v)
		}
	}
	def := findRow(t, rep, "8 MB")
	for i := 1; i < len(def); i++ {
		if v := parseFloat(t, def[i]); v != 0 {
			t.Errorf("fragility at default buffer for %s = %v, want 0", rep.Header[i], v)
		}
	}
	huge := findRow(t, rep, "8000 MB")
	for i := 1; i < len(huge); i++ {
		if v := parseFloat(t, huge[i]); v > 0 || v < -0.5 {
			t.Errorf("fragility at 8000 MB for %s = %v, want slightly negative", rep.Header[i], v)
		}
	}
}

// Figure 9 shape: HillClimb never exceeds Column (it can always fall back
// to column layout), beats it clearly around 0.1 MB, and converges to it
// for huge buffers. This is the paper's core "watch the buffer size" lesson.
func TestFig9Shape(t *testing.T) {
	rep := paperReport(t, "fig9")
	for _, row := range rep.Rows {
		if v := parsePercent(t, row[1]); v > 1.0001 {
			t.Errorf("HillClimb normalized cost at %s = %v > 100%%", row[0], v)
		}
	}
	if v := parsePercent(t, findRow(t, rep, "0.1 MB")[1]); v > 0.8 {
		t.Errorf("HillClimb at 0.1 MB = %v, expected clear win (paper: best spot ~100 KB)", v)
	}
	if v := parsePercent(t, findRow(t, rep, "10000 MB")[1]); v < 0.97 {
		t.Errorf("HillClimb at 10 GB = %v, expected ~100%% (no benefit)", v)
	}
	// Navathe is worse than Column for big buffers.
	if v := parsePercent(t, findRow(t, rep, "10000 MB")[2]); v <= 1 {
		t.Errorf("Navathe at 10 GB = %v, expected > 100%%", v)
	}
}

// Table 5 shape: the HillClimb class improves a few percent on both
// benchmarks, more on SSB; Navathe/O2P are negative on both.
func TestTab5Shape(t *testing.T) {
	rep := paperReport(t, "tab5")
	hc := findRow(t, rep, "HillClimb")
	tpch, ssb := parsePercent(t, hc[1]), parsePercent(t, hc[2])
	if tpch <= 0 || tpch > 0.1 {
		t.Errorf("HillClimb TPC-H improvement = %v, paper 0.0371", tpch)
	}
	if ssb <= tpch {
		t.Errorf("SSB improvement (%v) should exceed TPC-H (%v)", ssb, tpch)
	}
	nav := findRow(t, rep, "Navathe")
	if parsePercent(t, nav[1]) >= 0 || parsePercent(t, nav[2]) >= 0 {
		t.Errorf("Navathe improvements should be negative: %v", nav)
	}
}

// Table 6 shape: under the MM cost model the HillClimb class has exactly
// 0.00% improvement and Navathe/O2P are clearly negative.
func TestTab6Shape(t *testing.T) {
	rep := paperReport(t, "tab6")
	for _, name := range []string{"AutoPart", "HillClimb", "HYRISE", "BruteForce"} {
		if v := parsePercent(t, findRow(t, rep, name)[2]); v != 0 {
			t.Errorf("%s MM improvement = %v, paper 0.00%%", name, v)
		}
	}
	if v := parsePercent(t, findRow(t, rep, "Navathe")[2]); v >= 0 {
		t.Errorf("Navathe MM improvement = %v, want negative", v)
	}
}

// Table 7 shape: Column beats HillClimb beats Row under both compression
// schemes, and dictionary compression narrows the Column-HillClimb gap.
func TestTab7Shape(t *testing.T) {
	rep := paperReport(t, "tab7")
	if len(rep.Rows) != 2 {
		t.Fatalf("tab7 has %d rows", len(rep.Rows))
	}
	var gaps []float64
	for _, row := range rep.Rows {
		rowT, colT, hcT := parseFloat(t, row[1]), parseFloat(t, row[2]), parseFloat(t, row[3])
		if !(colT <= hcT && hcT < rowT) {
			t.Errorf("%s: want Column <= HillClimb < Row, got %v %v %v", row[0], colT, hcT, rowT)
		}
		gaps = append(gaps, (hcT-colT)/colT)
	}
	if gaps[1] > gaps[0] {
		t.Errorf("dictionary gap (%v) should not exceed default gap (%v)", gaps[1], gaps[0])
	}
}

// Figure 10 shape: everything pays off over Row within well under one
// workload execution; Navathe and O2P never pay off over Column.
func TestFig10Shape(t *testing.T) {
	rep := paperReport(t, "fig10")
	for _, row := range rep.Rows {
		if v := parsePercent(t, row[1]); v <= 0 || v > 0.6 {
			t.Errorf("%s pay-off over Row = %v, paper ~0.25", row[0], v)
		}
	}
	for _, name := range []string{"Navathe", "O2P"} {
		if cell := findRow(t, rep, name)[2]; cell != "never" {
			t.Errorf("%s pay-off over Column = %q, want never", name, cell)
		}
	}
	if cell := findRow(t, rep, "HillClimb")[2]; cell == "never" {
		t.Error("HillClimb should pay off over Column eventually")
	}
}

// Figure 11 shape: block size fragility is negligible, bandwidth moderate,
// seek time small — the ordering the paper's Appendix A.2 reports.
func TestFig11Shape(t *testing.T) {
	rep := paperReport(t, "fig11")
	maxAbs := map[string]float64{}
	for _, row := range rep.Rows {
		kind := strings.Fields(row[0])[0]
		for i := 1; i < len(row); i++ {
			v := parseFloat(t, row[i])
			if v < 0 {
				v = -v
			}
			if v > maxAbs[kind] {
				maxAbs[kind] = v
			}
		}
	}
	if maxAbs["block"] > 0.25 {
		t.Errorf("block-size fragility up to %v, paper <0.01 (ours allows small-block penalty)", maxAbs["block"])
	}
	if maxAbs["bw"] < 0.2 || maxAbs["bw"] > 0.6 {
		t.Errorf("bandwidth fragility max = %v, paper ~0.42", maxAbs["bw"])
	}
	if maxAbs["seek"] > 0.1 {
		t.Errorf("seek fragility max = %v, paper <0.05", maxAbs["seek"])
	}
	if !(maxAbs["block"] < maxAbs["bw"] && maxAbs["seek"] < maxAbs["bw"]) {
		t.Errorf("bandwidth should dominate block and seek fragility: %v", maxAbs)
	}
}

// Figure 12 shape: for every layout, re-optimizing per block size moves
// the estimate least, per seek time more, per bandwidth most.
func TestFig12Shape(t *testing.T) {
	rep := paperReport(t, "fig12")
	for i := 1; i < len(rep.Header); i++ {
		lo, hi := map[string]float64{}, map[string]float64{}
		for _, row := range rep.Rows {
			kind, v := strings.Fields(row[0])[0], parseFloat(t, row[i])
			if _, ok := lo[kind]; !ok || v < lo[kind] {
				lo[kind] = v
			}
			hi[kind] = max(hi[kind], v)
		}
		spread := func(kind string) float64 { return hi[kind] - lo[kind] }
		if !(spread("block") < spread("seek") && spread("seek") < spread("bw")) {
			t.Errorf("%s: spreads block %v, seek %v, bw %v; want increasing",
				rep.Header[i], spread("block"), spread("seek"), spread("bw"))
		}
	}
}

// Figure 13 shape: for buffers >= 10 MB the normalized cost jumps between
// SF 0.1 and SF 1 and is stable from SF 10 on.
func TestFig13Shape(t *testing.T) {
	rep := paperReport(t, "fig13")
	var hc01, hc1, hc10, hc100 float64
	for _, row := range rep.Rows {
		if row[0] != "HillClimb" {
			continue
		}
		v := parsePercent(t, row[5]) // 10 MB column
		switch row[1] {
		case "0.1":
			hc01 = v
		case "1":
			hc1 = v
		case "10":
			hc10 = v
		case "100":
			hc100 = v
		}
	}
	if !(hc01 < hc1) {
		t.Errorf("expected jump between SF 0.1 (%v) and SF 1 (%v) at 10 MB", hc01, hc1)
	}
	if diff := hc100 - hc10; diff < -0.01 || diff > 0.01 {
		t.Errorf("SF 10 (%v) and SF 100 (%v) should be nearly identical", hc10, hc100)
	}
}

// Figure 14: a layout row exists for every (table, algorithm) pair and the
// HillClimb class agrees on partsupp, where the paper shows one shared
// layout for AutoPart/HillClimb/HYRISE/Trojan/Optimal.
func TestFig14Shape(t *testing.T) {
	rep := paperReport(t, "fig14")
	wantRows := len(schema.TPCH(10).Tables) * (len(evaluatedAlgorithms) + 1)
	if len(rep.Rows) != wantRows {
		t.Errorf("fig14 has %d rows, want %d", len(rep.Rows), wantRows)
	}
	layouts := map[string]string{}
	for _, row := range rep.Rows {
		if row[0] == "partsupp" {
			layouts[row[1]] = row[2]
		}
	}
	for _, name := range []string{"AutoPart", "HYRISE", "Trojan", "BruteForce"} {
		if layouts[name] != layouts["HillClimb"] {
			t.Errorf("partsupp: %s layout %q differs from HillClimb %q", name, layouts[name], layouts["HillClimb"])
		}
	}
	if layouts["Navathe"] == layouts["HillClimb"] {
		t.Error("partsupp: Navathe should differ from the HillClimb class (paper, Fig. 14h)")
	}
}

// The suite searches each (algorithm, device) once: a repeated lookup
// returns the same backing array, and tab6 and ext-device share one MM
// search. A six-query workload keeps the searches cheap.
func TestSuiteCaching(t *testing.T) {
	s := NewSuite()
	s.Bench.Workload = s.Bench.Workload.Prefix(6)
	hillClimb := func(m *cost.DeviceModel, searches int) *algo.Result {
		t.Helper()
		rs, err := s.searched("HillClimb", m)
		if err != nil {
			t.Fatal(err)
		}
		if n := s.layouts.Len(); n != searches {
			t.Errorf("%d searches cached, want %d", n, searches)
		}
		return &rs[0]
	}
	if hillClimb(s.model(), 1) != hillClimb(s.model(), 1) {
		t.Error("default device: HillClimb searched again")
	}
	algos := len(evaluatedAlgorithms)
	if _, err := Tab6(s); err != nil {
		t.Fatal(err)
	}
	mm := hillClimb(cost.NewMM(), 2*algos) // HDD and MM
	if _, err := ExtDevice(s); err != nil {
		t.Fatal(err)
	}
	if hillClimb(cost.NewMM(), 3*algos) != mm { // HDD, SSD and MM
		t.Error("MM: ext-device searched HillClimb again")
	}
	if _, err := s.results("NoSuchAlgorithm"); err == nil {
		t.Error("results accepted unknown algorithm")
	}
}

// Reports render deterministically and align columns.
func TestReportRendering(t *testing.T) {
	r := &Report{ID: "x", Title: "t", Header: []string{"a", "bb"}}
	r.AddRow("1", "2")
	r.AddRow("333", "4")
	r.AddNote("hello %d", 7)
	s := r.String()
	if !strings.Contains(s, "note: hello 7") {
		t.Errorf("rendered: %q", s)
	}
	// Title, header, separator, two rows, one note.
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) != 6 {
		t.Errorf("rendered %d lines, want 6", len(lines))
	}
}
