package replay

import (
	"reflect"
	"strings"
	"testing"

	"knives/internal/partition"
	"knives/internal/schema"
	"knives/internal/storage"
)

// TestOperatorsMatchMonolithicReplay pins the two entry points to each
// other on an advised layout (TPC-H lineitem's pinned HillClimb layout): the
// same workload, layout, and config replayed through Layout (the
// TableReplay alone) and through Operators must report identical per-query
// stats, measurements, and predictions. The name dates from when Layout ran
// Engine.Scan; storage's pipeline_test.go now holds that identity against
// the Scan oracle.
func TestOperatorsMatchMonolithicReplay(t *testing.T) {
	tw := lineitem()
	for _, model := range []string{"hdd", "mm"} {
		layout := pinned(t, "TPC-H", tw, model, "HillClimb")
		cfg := Config{Model: model, MaxRows: 1_000, Seed: 7}
		scanRep, err := Layout(tw, layout, "HillClimb", cfg)
		if err != nil {
			t.Fatal(err)
		}
		opRep, err := Operators(tw, layout, "HillClimb", cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(scanRep.Queries) != len(opRep.Queries) {
			t.Fatalf("%s: %d vs %d queries", model, len(scanRep.Queries), len(opRep.Queries))
		}
		for i := range scanRep.Queries {
			s, o := scanRep.Queries[i], opRep.Queries[i]
			if s.Stats.Checksum != o.Stats.Checksum ||
				s.Stats.BytesRead != o.Stats.BytesRead ||
				s.Stats.Seeks != o.Stats.Seeks ||
				s.Stats.ReconJoins != o.Stats.ReconJoins ||
				s.Stats.SimTime != o.Stats.SimTime ||
				s.MeasuredSeconds != o.MeasuredSeconds ||
				s.PredictedSeconds != o.PredictedSeconds {
				t.Errorf("%s query %s: scan %+v != operator %+v", model, s.ID, s, o)
			}
		}
		if scanRep.MeasuredTotal != opRep.MeasuredTotal || scanRep.PredictedTotal != opRep.PredictedTotal {
			t.Errorf("%s totals diverge: scan %.18g/%.18g, operator %.18g/%.18g",
				model, scanRep.MeasuredTotal, scanRep.PredictedTotal,
				opRep.MeasuredTotal, opRep.PredictedTotal)
		}
	}
}

// TestOperatorsSelection runs TPC-H lineitem with a σ on l_shipdate pushed
// into every pipeline. The common-granularity rule means selectivity must
// not change physical I/O — every referenced partition is still read in
// full, so measured == predicted holds at zero tolerance — while the rows
// the root emits shrink roughly in proportion to the date fraction.
func TestOperatorsSelection(t *testing.T) {
	const shipdate = 10 // l_shipdate, a 4-byte date column
	tw := lineitem()
	layout := pinned(t, "TPC-H", tw, "hdd", "HillClimb")
	cfg := Config{Model: "hdd", MaxRows: 2_000, Seed: 42}

	type run struct {
		frac float64
		rep  *OperatorReplay
	}
	var runs []run
	for _, frac := range []float64{0.25, 0.75} {
		sel := &Selection{Attr: shipdate, Bound: uint32(frac * storage.DateDomain)}
		rep, err := Operators(tw, layout, "HillClimb", cfg, sel)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Selection == "" {
			t.Error("selection not recorded on the replay")
		}
		if !rep.Exact() {
			t.Errorf("frac %.2f: executed != predicted (max |delta| %g) — selectivity leaked into I/O",
				frac, rep.MaxAbsDelta())
		}
		for qi := range rep.Queries {
			got := rep.ResultRows[qi]
			if got >= rep.RowsReplayed {
				t.Errorf("frac %.2f query %d: σ emitted %d of %d rows — no filtering",
					frac, qi, got, rep.RowsReplayed)
			}
			lo := int64(float64(rep.RowsReplayed) * (frac - 0.15))
			hi := int64(float64(rep.RowsReplayed)*(frac+0.15)) + 1
			if got < lo || got > hi {
				t.Errorf("frac %.2f query %d: σ emitted %d rows, expected roughly %d of %d",
					frac, qi, got, int64(frac*float64(rep.RowsReplayed)), rep.RowsReplayed)
			}
		}
		runs = append(runs, run{frac, rep})
	}
	// Physical I/O is selectivity-independent: both fractions read the
	// same bytes with the same seeks.
	a, b := runs[0].rep, runs[1].rep
	if a.BytesRead != b.BytesRead || a.Seeks != b.Seeks {
		t.Errorf("selectivity changed I/O: %.2f read %d bytes/%d seeks, %.2f read %d/%d",
			runs[0].frac, a.BytesRead, a.Seeks, runs[1].frac, b.BytesRead, b.Seeks)
	}
	if a.ResultRows[0] >= b.ResultRows[0] {
		t.Errorf("tighter bound emitted more rows: %d (frac %.2f) >= %d (frac %.2f)",
			a.ResultRows[0], runs[0].frac, b.ResultRows[0], runs[1].frac)
	}
}

// The rendered report is what `knives exec` prints and what a human debugs
// a divergence from, so the plan, the selection, and every operator row
// must actually appear in it.
func TestOperatorReplayString(t *testing.T) {
	tw := lineitem()
	sel := &Selection{Attr: 10, Bound: uint32(storage.DateDomain / 2)} // σ on l_shipdate
	rep, err := Operators(tw, partition.Row(tw.Table), "Row", Config{Model: "hdd", MaxRows: 500, Seed: 1}, sel)
	if err != nil {
		t.Fatal(err)
	}
	out := rep.String()
	if !strings.Contains(out, "selection: "+rep.Selection) {
		t.Errorf("rendered report misses the selection %q:\n%s", rep.Selection, out)
	}
	for i, q := range rep.Queries {
		if !strings.Contains(out, q.ID+": "+rep.Plans[i]) {
			t.Errorf("rendered report misses plan for %s:\n%s", q.ID, out)
		}
		for _, op := range rep.Ops[i] {
			if !strings.Contains(out, op.Name) {
				t.Errorf("rendered report misses operator %s of %s", op.Name, q.ID)
			}
		}
	}
	if n := strings.Count(out, "rows\n"); n != len(rep.Queries) {
		t.Errorf("rendered %d query result lines, want %d", n, len(rep.Queries))
	}
}

func TestOperatorsErrors(t *testing.T) {
	tw := schema.TPCH(10).TableWorkloads()[0]
	cfg := Config{Model: "hdd", MaxRows: 500, Seed: 1}
	if _, err := Operators(schema.TableWorkload{}, partition.Partitioning{}, "x", cfg, nil); err == nil {
		t.Error("nil table accepted")
	}
	row := partition.Row(tw.Table)
	if _, err := Operators(tw, row, "Row", Config{Model: "nope"}, nil); err == nil {
		t.Error("unknown model accepted")
	}
	// A selection on an attribute outside the table must fail at Build.
	if _, err := Operators(tw, row, "Row", cfg, &Selection{Attr: 63, Bound: 1}); err == nil {
		t.Error("selection attribute outside the table accepted")
	}
}

// sameReport compares two operator replays field for field, wall clock
// aside.
func sameReport(t *testing.T, label string, got, want *OperatorReplay) {
	t.Helper()
	g, w := *got, *want
	g.Elapsed, w.Elapsed = 0, 0
	g.ExecSeconds, w.ExecSeconds = nil, nil
	if !reflect.DeepEqual(g, w) {
		t.Errorf("%s: reports differ\n got %+v\nwant %+v", label, g, w)
	}
}

// TestOperatorsVectorSelection re-runs the selection leg at another batch
// size and the "vector" exec label: σ into the selection vector, same result rows,
// same checksums, same physical I/O, exact against the model — and no
// rendering mentions an exec mode.
func TestOperatorsVectorSelection(t *testing.T) {
	const shipdate = 10
	tw := lineitem()
	layout := pinned(t, "TPC-H", tw, "hdd", "HillClimb")
	sel := &Selection{Attr: shipdate, Bound: uint32(storage.DateDomain / 2)}
	base := Config{Model: "hdd", MaxRows: 2_000, Seed: 42}
	knobs := base
	knobs.ExecMode = "vector"
	knobs.BatchSize = 64
	want, err := Operators(tw, layout, "HillClimb", base, sel)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Operators(tw, layout, "HillClimb", knobs, sel)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Exact() {
		t.Errorf("selective run inexact (max |delta| %g)", got.MaxAbsDelta())
	}
	if got.ExecMode != "vector" || want.ExecMode != "row" {
		t.Errorf("exec mode labels: got %q and %q, want the request's echoed (vector, row)", got.ExecMode, want.ExecMode)
	}
	got.ExecMode, got.FillRatios = want.ExecMode, want.FillRatios
	sameReport(t, "batch 64 + knobs vs defaults", got, want)
	if strings.Contains(got.String(), "exec:") || got.String() != want.String() {
		t.Errorf("rendering depends on the exec knobs:\n%s\nvs\n%s", got.String(), want.String())
	}
}

// TestConfigExecValidation pins the config-level exec knob validation.
func TestConfigExecValidation(t *testing.T) {
	tw := schema.TPCH(10).TableWorkloads()[0]
	for _, cfg := range []Config{
		{Model: "hdd", ExecMode: "columnar"},
		{Model: "hdd", BatchSize: -1},
		{Model: "hdd", BatchSize: 1 << 20},
	} {
		if _, err := Operators(tw, partition.Row(tw.Table), "Row", cfg, nil); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
}
