package operator

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"testing"

	"knives/internal/attrset"
	"knives/internal/cost"
	"knives/internal/partition"
	"knives/internal/schema"
	"knives/internal/storage"
)

// testDevice is a tiny block device that forces many pages and buffer
// refills even on small test tables: 64-byte pages, a 256-byte buffer.
func testDevice() cost.Device {
	return cost.Device{
		Name: "tiny", Pricing: cost.PricingBlock,
		BlockSize: 64, BufferSize: 256,
		ReadBandwidth: 1e6, SeekTime: 1e-3,
		CacheLineSize: 16, MissLatency: 1e-7,
	}
}

// testCacheDevice shares the block geometry (so one materialized store
// serves both) but prices cache-line transfers.
func testCacheDevice() cost.Device {
	d := testDevice()
	d.Name = "tinymm"
	d.Pricing = cost.PricingCache
	return d
}

func testTable(t *testing.T, rows int64) *schema.Table {
	t.Helper()
	tbl, err := schema.NewTable("optest", rows, []schema.Column{
		{Name: "a0", Kind: schema.KindInt, Size: 4},
		{Name: "a1", Kind: schema.KindDate, Size: 4},
		{Name: "a2", Kind: schema.KindDecimal, Size: 8},
		{Name: "a3", Kind: schema.KindChar, Size: 6},
		{Name: "a4", Kind: schema.KindInt, Size: 4},
		{Name: "a5", Kind: schema.KindVarchar, Size: 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func loadEngine(t *testing.T, tbl *schema.Table, parts []attrset.Set, dev cost.Device, seed int64) *storage.Engine {
	t.Helper()
	layout, err := partition.New(tbl, parts)
	if err != nil {
		t.Fatal(err)
	}
	e, err := storage.NewEngine(layout, dev, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	if err := e.Load(storage.NewGenerator(seed), tbl.Rows); err != nil {
		t.Fatal(err)
	}
	return e
}

var testLayouts = map[string][]attrset.Set{
	"row":     {attrset.All(6)},
	"column":  {attrset.Of(0), attrset.Of(1), attrset.Of(2), attrset.Of(3), attrset.Of(4), attrset.Of(5)},
	"grouped": {attrset.Of(0, 2), attrset.Of(1, 4), attrset.Of(3, 5)},
}

// rowScan runs query through the row-at-a-time oracle (row_test.go) with no
// predicate: the full scan of the referenced partitions, one cursor step per
// row. storage's external cross-check pins the same numbers to its
// monolithic Scan oracle.
func rowScan(t *testing.T, snap *storage.Snapshot, dev cost.Device, q attrset.Set) storage.ScanStats {
	t.Helper()
	pipe, err := buildRow(snap, dev, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := pipe.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res.Stats
}

// TestPipelineEqualsScan is the core contract: a pipeline with no
// predicate must reproduce the row-at-a-time scan's ScanStats — every
// field, including the per-partition breakdown, simulated time, and
// checksum — bit for bit, for every layout x query x device.
func TestPipelineEqualsScan(t *testing.T) {
	queries := []attrset.Set{
		attrset.Of(0),
		attrset.Of(0, 2),
		attrset.Of(1, 3, 5),
		attrset.All(6),
		attrset.Of(), // empty: both sides do nothing
	}
	for _, dev := range []cost.Device{testDevice(), testCacheDevice()} {
		for lname, parts := range testLayouts {
			e := loadEngine(t, testTable(t, 533), parts, dev, 7)
			snap := e.Snapshot()
			for qi, q := range queries {
				t.Run(fmt.Sprintf("%s/%s/q%d", dev.Name, lname, qi), func(t *testing.T) {
					want := rowScan(t, snap, dev, q)
					pipe, err := Build(snap, dev, q, nil)
					if err != nil {
						t.Fatal(err)
					}
					res, err := pipe.Run()
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(res.Stats, want) {
						t.Errorf("pipeline stats diverge from the row scan\n got %+v\nwant %+v", res.Stats, want)
					}
					if res.Rows != want.Tuples || res.Checksum != want.Checksum {
						t.Errorf("rows/checksum: got %d/%x want %d/%x", res.Rows, res.Checksum, want.Tuples, want.Checksum)
					}
					if len(res.Ops) == 0 && !q.IsEmpty() {
						t.Errorf("no per-operator stats for non-empty query")
					}
					// Leaf SimTime terms must sum to the total (same
					// expression per leaf, same order).
					var leafSum float64
					for _, op := range res.Ops {
						if op.Op == "scan" {
							leafSum += op.SimTime
						}
					}
					if dev.Pricing == cost.PricingBlock && leafSum != res.Stats.SimTime {
						t.Errorf("leaf SimTime sum %g != pipeline SimTime %g", leafSum, res.Stats.SimTime)
					}
					if dev.Pricing == cost.PricingCache && leafSum != MeasuredSeconds(dev, res.Stats) {
						t.Errorf("leaf cache-time sum %g != measured seconds %g", leafSum, MeasuredSeconds(dev, res.Stats))
					}
				})
			}
		}
	}
}

// TestWhatIfDevice pins the one-store-many-devices property: a pipeline
// accounting against a different device (same block geometry) over one
// materialized store must equal a row-at-a-time scan of an engine built
// with that device outright.
func TestWhatIfDevice(t *testing.T) {
	tbl := testTable(t, 300)
	parts := testLayouts["grouped"]
	base := testDevice()
	whatif := testDevice()
	whatif.Name = "fast"
	whatif.SeekTime = 1e-5
	whatif.ReadBandwidth = 5e7

	e := loadEngine(t, tbl, parts, base, 3)
	q := attrset.Of(0, 1, 3)
	pipe, err := Build(e.Snapshot(), whatif, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := pipe.Run()
	if err != nil {
		t.Fatal(err)
	}

	oracle := loadEngine(t, tbl, parts, whatif, 3)
	want := rowScan(t, oracle.Snapshot(), whatif, q)
	if !reflect.DeepEqual(res.Stats, want) {
		t.Errorf("what-if stats diverge\n got %+v\nwant %+v", res.Stats, want)
	}
}

// selOracle counts and identifies the rows a U32Less predicate keeps,
// straight from the deterministic generator.
func selOracle(tbl *schema.Table, seed int64, attr int, bound uint32) []int64 {
	gen := storage.NewGenerator(seed)
	buf := make([]byte, tbl.Columns[attr].Size)
	var ids []int64
	for r := int64(0); r < tbl.Rows; r++ {
		gen.Value(tbl.Columns[attr], r, buf)
		if len(buf) >= 4 && binary.LittleEndian.Uint32(buf) < bound {
			ids = append(ids, r)
		}
	}
	return ids
}

// TestSelectionPushdown checks σ semantics and the common-granularity
// invariant: the selected rows match a generator oracle, while the
// physical reads equal the FULL scan of (query ∪ {pred attr}) — selections
// change what comes out, never what is read.
func TestSelectionPushdown(t *testing.T) {
	tbl := testTable(t, 533)
	const seed = 11
	for lname, parts := range testLayouts {
		for _, bound := range []uint32{0, storage.DateDomain / 3, storage.DateDomain * 2} {
			t.Run(fmt.Sprintf("%s/bound%d", lname, bound), func(t *testing.T) {
				dev := testDevice()
				e := loadEngine(t, tbl, parts, dev, seed)
				q := attrset.Of(0, 1, 5) // includes the pred attr (a1)
				pred := U32Less(1, bound)
				pipe, err := Build(e.Snapshot(), dev, q, &pred)
				if err != nil {
					t.Fatal(err)
				}
				var gotIDs []int64
				res, err := pipe.RunFunc(func(r *Row) error {
					gotIDs = append(gotIDs, r.ID)
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				wantIDs := selOracle(tbl, seed, 1, bound)
				if len(gotIDs) != len(wantIDs) {
					t.Fatalf("selected %d rows, oracle says %d", len(gotIDs), len(wantIDs))
				}
				for i := range gotIDs {
					if gotIDs[i] != wantIDs[i] {
						t.Fatalf("row %d: selected ID %d, oracle %d", i, gotIDs[i], wantIDs[i])
					}
				}
				// Physical reads equal the full scan of the referenced set.
				want := rowScan(t, e.Snapshot(), dev, q.Add(1))
				if res.Stats.Seeks != want.Seeks || res.Stats.BytesRead != want.BytesRead ||
					res.Stats.SimTime != want.SimTime || !reflect.DeepEqual(res.Stats.Parts, want.Parts) {
					t.Errorf("selective plan's physical reads diverge from full scan\n got %+v\nwant %+v", res.Stats, want)
				}
				if bound >= storage.DateDomain {
					// Selects everything: the result digest must equal the
					// predicate-free scan's over the same attributes.
					full := rowScan(t, e.Snapshot(), dev, q)
					if res.Checksum != full.Checksum || res.Rows != full.Tuples {
						t.Errorf("all-pass selection: checksum/rows %x/%d, scan %x/%d",
							res.Checksum, res.Rows, full.Checksum, full.Tuples)
					}
				}
				if bound == 0 && res.Rows != 0 {
					t.Errorf("none-pass selection returned %d rows", res.Rows)
				}
			})
		}
	}
}

// TestJoinOvershootAlignment drives the row oracle's merge join through its
// realignment path directly (no built plan stacks two σ): two σ children
// with different, interleaved match sets force each side to overshoot the
// other's candidate repeatedly, and the join must still terminate having
// read both partitions in full.
func TestJoinOvershootAlignment(t *testing.T) {
	tbl := testTable(t, 200)
	dev := testDevice()
	e := loadEngine(t, tbl, []attrset.Set{attrset.Of(0, 4), attrset.Of(1, 2, 3, 5)}, dev, 5)
	snap := e.Snapshot()
	total := int64(snap.PartRowSize(0) + snap.PartRowSize(1))
	c0, err := snap.Cursor(0, dev, total)
	if err != nil {
		t.Fatal(err)
	}
	c1, err := snap.Cursor(1, dev, total)
	if err != nil {
		t.Fatal(err)
	}
	// a0 is near-sequential (row + jitter<7): "a0 < 50" keeps roughly the
	// first 50 rows; "a1 < DateDomain/2" keeps a scattered half of them all.
	s0 := NewSelect(NewScan(c0, dev), U32Less(0, 50))
	s1 := NewSelect(NewScan(c1, dev), U32Less(1, storage.DateDomain/2))
	join := NewReconJoin([]Operator{s0, s1})
	proj := NewProject(join, attrset.Of(0, 1))
	rows := 0
	for {
		r, err := proj.Next()
		if err != nil {
			t.Fatal(err)
		}
		if r == nil {
			break
		}
		if r.Col(0) == nil || r.Col(1) == nil {
			t.Fatalf("joined row missing a side")
		}
		rows++
	}
	// Both partitions must have been drained in full regardless of the
	// predicates (the common-granularity rule).
	full := rowScan(t, snap, dev, attrset.All(6))
	for i, c := range []*storage.PartCursor{c0, c1} {
		ps := c.Stats()
		if ps.BytesRead != full.Parts[i].BytesRead {
			t.Errorf("partition %d read %d bytes, full scan reads %d", i, ps.BytesRead, full.Parts[i].BytesRead)
		}
	}
	if js := join.Stats(); js.RowsOut != int64(rows) || js.ReconJoins != int64(rows) {
		t.Errorf("join stats %+v inconsistent with %d emitted rows", js, rows)
	}
	if proj.Stats().RowsIn != int64(rows) {
		t.Errorf("project saw %d rows, want %d", proj.Stats().RowsIn, rows)
	}
}

func TestBuildErrors(t *testing.T) {
	tbl := testTable(t, 50)
	dev := testDevice()
	e := loadEngine(t, tbl, testLayouts["grouped"], dev, 1)
	snap := e.Snapshot()

	if _, err := Build(snap, cost.Device{}, attrset.Of(0), nil); err == nil {
		t.Error("invalid device accepted")
	}
	bad := dev
	bad.BlockSize = 128
	if _, err := Build(snap, bad, attrset.Of(0), nil); err == nil {
		t.Error("mismatched block size accepted")
	}
	narrow := loadEngine(t, fuzzTable(50), []attrset.Set{attrset.All(8)}, dev, 1)
	short := U32Less(3, 1) // f3 is char(3): no u32 to read
	if _, err := Build(narrow.Snapshot(), dev, attrset.Of(0), &short); err == nil {
		t.Error("predicate on a 3-byte column accepted")
	}
	outside := U32Less(63, 1)
	if _, err := Build(snap, dev, attrset.Of(0), &outside); err == nil {
		t.Error("predicate outside the table accepted")
	}
}

func TestPipelineLifecycle(t *testing.T) {
	tbl := testTable(t, 50)
	dev := testDevice()
	e := loadEngine(t, tbl, testLayouts["row"], dev, 1)

	pipe, err := Build(e.Snapshot(), dev, attrset.Of(0, 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	if d := pipe.Describe(); d == "" || d == "(empty)" {
		t.Errorf("Describe: %q", d)
	}
	if _, err := pipe.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := pipe.Run(); err == nil {
		t.Error("second Run accepted")
	}

	// Empty plan: runs to an empty result (digest.go's empty checksum),
	// describes as empty.
	empty, err := Build(e.Snapshot(), dev, attrset.Of(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if d := empty.Describe(); d != "(empty)" {
		t.Errorf("empty Describe: %q", d)
	}
	res, err := empty.Run()
	if err != nil || res.Rows != 0 || len(res.Ops) != 0 ||
		res.Checksum != storage.ChecksumSeed || res.Stats.Checksum != storage.ChecksumSeed {
		t.Errorf("empty plan: %+v, %v", res, err)
	}

	// A callback error aborts the run.
	pipe2, err := Build(e.Snapshot(), dev, attrset.Of(0), nil)
	if err != nil {
		t.Fatal(err)
	}
	wantErr := fmt.Errorf("stop")
	if _, err := pipe2.RunFunc(func(*Row) error { return wantErr }); err != wantErr {
		t.Errorf("callback error not propagated: %v", err)
	}
}

// TestPreds holds the branchless filterRun to σ's definition (Pred.match)
// where the generated data never goes: values and bounds at 0, around
// 2^31 (a signed comparison would flip there) and at 2^32-1, at a stride
// wider than the column.
func TestPreds(t *testing.T) {
	vals := []uint32{0, 1, 100, 1<<31 - 1, 1 << 31, 1<<32 - 2, 1<<32 - 1, 7}
	const stride = 6
	r := run{rows: make([]byte, len(vals)*stride), first: 3, n: len(vals)}
	for i, v := range vals {
		binary.LittleEndian.PutUint32(r.rows[i*stride+2:], v)
	}
	for _, bound := range []uint32{0, 1, 100, 101, 1 << 31, 1<<31 + 1, 1<<32 - 1} {
		p := U32Less(0, bound)
		sel := make([]int32, 2+len(vals))
		got := sel[2:p.filterRun(&r, stride, 2, sel, 2)]
		var want []int32
		for i := range vals {
			if p.match(r.rows[i*stride+2:]) {
				want = append(want, int32(r.first+i))
			}
		}
		if !reflect.DeepEqual(append([]int32{}, got...), append([]int32{}, want...)) {
			t.Errorf("%v over %v: filterRun kept slots %v, the definition %v", p, vals, got, want)
		}
	}
	if got := U32Less(10, 1263).String(); got != "a10<1263" {
		t.Errorf("String() = %q", got)
	}
}

func TestRowCol(t *testing.T) {
	var r Row
	r.Attrs = attrset.Of(2)
	r.vals[2] = []byte{9}
	if got := r.Col(2); len(got) != 1 || got[0] != 9 {
		t.Errorf("Col(2) = %v", got)
	}
	if r.Col(3) != nil {
		t.Error("Col on absent attr not nil")
	}
}

func TestMeasuredSeconds(t *testing.T) {
	st := storage.ScanStats{
		SimTime: 1.5,
		Parts: []storage.PartScanStats{
			{CacheLines: 10}, {CacheLines: 5},
		},
	}
	if got := MeasuredSeconds(testDevice(), st); got != 1.5 {
		t.Errorf("block: %g", got)
	}
	dev := testCacheDevice()
	want := float64(10)*dev.MissLatency + float64(5)*dev.MissLatency
	if got := MeasuredSeconds(dev, st); got != want {
		t.Errorf("cache: %g want %g", got, want)
	}
}
