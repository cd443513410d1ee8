package operator

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"testing"

	"knives/internal/attrset"
	"knives/internal/cost"
	"knives/internal/storage"
)

// vecBatchSweep is the batch-size sweep every differential leg runs: a
// degenerate 1-row batch, a prime that never divides the page row count, a
// small power of two, a big batch, and one larger than the whole table.
func vecBatchSweep(rows int64) []int {
	return []int{1, 7, 64, 4096, int(rows) + 1}
}

// resultsEqual compares two pipeline Results at zero tolerance — floats by
// their bits — ignoring FillRatios (a telemetry signal the row oracle does
// not produce).
func resultsEqual(t *testing.T, label string, got, want Result) {
	t.Helper()
	if got.Rows != want.Rows || got.Checksum != want.Checksum {
		t.Errorf("%s: rows/checksum %d/%x, want %d/%x", label, got.Rows, got.Checksum, want.Rows, want.Checksum)
	}
	if g, w := math.Float64bits(got.Stats.SimTime), math.Float64bits(want.Stats.SimTime); g != w {
		t.Errorf("%s: SimTime bits %#x, want %#x", label, g, w)
	}
	for i := range got.Ops {
		if i < len(want.Ops) && math.Float64bits(got.Ops[i].SimTime) != math.Float64bits(want.Ops[i].SimTime) {
			t.Errorf("%s: op %s SimTime bits diverge", label, got.Ops[i].Name)
		}
	}
	if !reflect.DeepEqual(got.Stats, want.Stats) {
		t.Errorf("%s: stats diverge\n got %+v\nwant %+v", label, got.Stats, want.Stats)
	}
	if !reflect.DeepEqual(got.Ops, want.Ops) {
		t.Errorf("%s: per-operator stats diverge\n got %+v\nwant %+v", label, got.Ops, want.Ops)
	}
}

// TestVectorEqualsRowOracle is the executor's contract: for every layout x
// device x query x predicate and every swept batch size, the pipeline's
// Result — rows, checksum, ScanStats including the per-partition breakdown
// and SimTime, and per-operator OpStats — equals the row oracle's bit for
// bit.
func TestVectorEqualsRowOracle(t *testing.T) {
	const rows = 533
	queries := []attrset.Set{
		attrset.Of(0, 2),
		attrset.Of(1, 3, 5),
		attrset.All(6),
	}
	preds := []*Pred{nil}
	for _, bound := range []uint32{0, storage.DateDomain / 3, storage.DateDomain * 2} {
		p := U32Less(1, bound)
		preds = append(preds, &p)
	}
	for _, dev := range []cost.Device{testDevice(), testCacheDevice()} {
		for lname, parts := range testLayouts {
			e := loadEngine(t, testTable(t, rows), parts, dev, 7)
			snap := e.Snapshot()
			for qi, q := range queries {
				for pi, pred := range preds {
					t.Run(fmt.Sprintf("%s/%s/q%d/p%d", dev.Name, lname, qi, pi), func(t *testing.T) {
						rowPipe, err := buildRow(snap, dev, q, pred)
						if err != nil {
							t.Fatal(err)
						}
						want, err := rowPipe.Run()
						if err != nil {
							t.Fatal(err)
						}
						for _, bs := range vecBatchSweep(rows) {
							vec, err := BuildExec(snap, dev, q, pred, ExecOptions{BatchSize: bs})
							if err != nil {
								t.Fatal(err)
							}
							got, err := vec.Run()
							if err != nil {
								t.Fatal(err)
							}
							resultsEqual(t, fmt.Sprintf("batch=%d", bs), got, want)
							if len(got.FillRatios) == 0 {
								t.Errorf("batch=%d: vector run reported no fill ratios", bs)
							}
							for _, fr := range got.FillRatios {
								if fr < 0 || fr > 1 {
									t.Errorf("batch=%d: fill ratio %g outside [0,1]", bs, fr)
								}
							}
						}
					})
				}
			}
		}
	}
}

// TestVectorRowSynthesis checks RunFunc hands fn the same row stream — IDs,
// attribute sets, and column bytes in order — as the row oracle.
func TestVectorRowSynthesis(t *testing.T) {
	const rows = 257
	type gotRow struct {
		id   int64
		vals []byte
	}
	collect := func(t *testing.T, run func(func(*Row) error) (Result, error), q attrset.Set) []gotRow {
		t.Helper()
		var out []gotRow
		qcols := q.Attrs()
		_, err := run(func(r *Row) error {
			g := gotRow{id: r.ID}
			if r.Attrs != q {
				t.Fatalf("row attrs %v, want %v", r.Attrs, q)
			}
			for _, a := range qcols {
				g.vals = append(g.vals, r.Col(a)...)
			}
			out = append(out, g)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	pred := U32Less(1, storage.DateDomain/2)
	for _, batch := range []int{31, 1} {
		t.Run(fmt.Sprintf("batch=%d", batch), func(t *testing.T) {
			dev := testDevice()
			e := loadEngine(t, testTable(t, rows), testLayouts["grouped"], dev, 3)
			snap := e.Snapshot()
			q := attrset.Of(0, 1, 3)

			rowPipe, err := buildRow(snap, dev, q, &pred)
			if err != nil {
				t.Fatal(err)
			}
			want := collect(t, rowPipe.RunFunc, q)

			vec, err := BuildExec(snap, dev, q, &pred, ExecOptions{BatchSize: batch})
			if err != nil {
				t.Fatal(err)
			}
			got := collect(t, vec.RunFunc, q)
			if len(got) != len(want) {
				t.Fatalf("vector emitted %d rows, row oracle %d", len(got), len(want))
			}
			for i := range got {
				if got[i].id != want[i].id || !bytes.Equal(got[i].vals, want[i].vals) {
					t.Fatalf("row %d: vector id=%d % x, oracle id=%d % x",
						i, got[i].id, got[i].vals, want[i].id, want[i].vals)
				}
			}
		})
	}
}

// TestExecOptionsValidation pins BuildExec's knob validation.
func TestExecOptionsValidation(t *testing.T) {
	dev := testDevice()
	e := loadEngine(t, testTable(t, 50), testLayouts["row"], dev, 1)
	snap := e.Snapshot()
	q := attrset.Of(0)

	bad := []ExecOptions{
		{Mode: "columnar"},
		{BatchSize: -1},
		{Mode: ExecVector, BatchSize: MaxBatchSize + 1},
	}
	for _, opts := range bad {
		if _, err := BuildExec(snap, dev, q, nil, opts); err == nil {
			t.Errorf("BuildExec accepted %+v", opts)
		}
	}
	// Zero values default instead of erroring, and every accepted mode is
	// the same label-only knob: the empty one reads as "row".
	for mode, label := range map[ExecMode]ExecMode{"": ExecRow, ExecRow: ExecRow, ExecVector: ExecVector} {
		pipe, err := BuildExec(snap, dev, q, nil, ExecOptions{Mode: mode})
		if err != nil {
			t.Fatalf("mode %q rejected: %v", mode, err)
		}
		if pipe.opts.BatchSize != DefaultBatchSize || pipe.opts.Mode != label {
			t.Errorf("mode %q: normalized to %+v, want mode %q batch %d", mode, pipe.opts, label, DefaultBatchSize)
		}
	}
}

// TestVectorLifecycle covers the pipeline's plumbing corners: Describe
// parity with the row oracle's plan, the run-once guard, empty plans, and callback
// error propagation.
func TestVectorLifecycle(t *testing.T) {
	dev := testDevice()
	e := loadEngine(t, testTable(t, 150), testLayouts["grouped"], dev, 1)
	snap := e.Snapshot()
	q := attrset.Of(0, 1)

	rowPipe, err := buildRow(snap, dev, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	vec, err := BuildExec(snap, dev, q, nil, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rd, vd := rowPipe.Describe(), vec.Describe(); rd != vd {
		t.Errorf("Describe diverges from the row oracle: row %q pipeline %q", rd, vd)
	}
	if _, err := vec.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := vec.Run(); err == nil {
		t.Error("second vector Run accepted")
	}

	// Empty plan: empty result, no ops.
	empty, err := BuildExec(snap, dev, attrset.Of(), nil, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res, err := empty.Run(); err != nil || res.Rows != 0 || len(res.Ops) != 0 {
		t.Errorf("empty vector plan: %+v, %v", res, err)
	}

	// A callback error aborts the run.
	wantErr := fmt.Errorf("stop")
	pipe, err := BuildExec(snap, dev, q, nil, ExecOptions{BatchSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pipe.RunFunc(func(*Row) error { return wantErr }); err != wantErr {
		t.Errorf("callback error not propagated: %v", err)
	}
}

// TestBatchAccessors covers the Batch surface operators outside this
// package see.
func TestBatchAccessors(t *testing.T) {
	// Four 3-byte rows straddling two pages (slots 0-1 on one, 2-3 on the
	// next); attribute 2 is the 2 bytes at offset 1 of each row.
	v := &view{rowSize: 3, runs: []run{
		{rows: []byte{9, 0, 1, 9, 2, 3}, first: 0, n: 2},
		{rows: []byte{9, 4, 5, 9, 6, 7}, first: 2, n: 2},
	}}
	bind := &binding{loc: []storage.ColLoc{2: {Part: 1, Off: 1, Width: 2}, 3: {Part: 0}}, views: []*view{nil, v}}
	b := &Batch{n: 4, attrs: attrset.Of(2), bind: bind}
	if b.Len() != 4 {
		t.Errorf("Len = %d", b.Len())
	}
	if b.Attrs() != attrset.Of(2) {
		t.Errorf("Attrs = %v", b.Attrs())
	}
	// Ascending, then back across the page boundary.
	for _, i := range []int{1, 2, 3, 0, 3, 1} {
		if got := b.Col(2, i); !bytes.Equal(got, []byte{byte(2 * i), byte(2*i + 1)}) {
			t.Errorf("Col(2,%d) = %v", i, got)
		}
	}
	if b.Col(3, 0) != nil {
		t.Error("Col on absent attr not nil")
	}
	if b.Sel() != nil || b.live() != 4 {
		t.Errorf("nil-sel batch: sel %v live %d", b.Sel(), b.live())
	}
	b.sel = []int32{1, 3}
	if b.live() != 2 || len(b.Sel()) != 2 {
		t.Errorf("selected batch: sel %v live %d", b.Sel(), b.live())
	}
}
