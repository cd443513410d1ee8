package operator

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"

	"knives/internal/attrset"
	"knives/internal/partition"
	"knives/internal/schema"
	"knives/internal/storage"
	"knives/internal/vfs"
)

// fuzzTable is the fixed 8-column table random plans run over; small rows
// and the tiny test device give several pages per partition.
func fuzzTable(rows int64) *schema.Table {
	tbl, err := schema.NewTable("fuzz", rows, []schema.Column{
		{Name: "f0", Kind: schema.KindInt, Size: 4},
		{Name: "f1", Kind: schema.KindDate, Size: 4},
		{Name: "f2", Kind: schema.KindDecimal, Size: 8},
		{Name: "f3", Kind: schema.KindChar, Size: 3},
		{Name: "f4", Kind: schema.KindInt, Size: 4},
		{Name: "f5", Kind: schema.KindDate, Size: 4},
		{Name: "f6", Kind: schema.KindChar, Size: 5},
		{Name: "f7", Kind: schema.KindVarchar, Size: 7},
	})
	if err != nil {
		panic(err)
	}
	return tbl
}

// fuzzWideTable is fuzzTable's columns repeated out to attrset.MaxAttrs.
func fuzzWideTable(rows int64) *schema.Table {
	narrow := fuzzTable(rows).Columns
	cols := make([]schema.Column, attrset.MaxAttrs)
	for i := range cols {
		cols[i] = narrow[i%len(narrow)]
		cols[i].Name = fmt.Sprintf("w%d", i)
	}
	tbl, err := schema.NewTable("wide", rows, cols)
	if err != nil {
		panic(err)
	}
	return tbl
}

// u32Cols returns the table's int and date columns: the u32 columns a σ
// reads.
func u32Cols(tbl *schema.Table) []int {
	var out []int
	for a, c := range tbl.Columns {
		if c.Kind == schema.KindInt || c.Kind == schema.KindDate {
			out = append(out, a)
		}
	}
	return out
}

// fuzzBound reads a fuzzed bound in one of four ranges, by mode: as drawn,
// across the whole u32 range; folded into the date domain, and into the int
// columns' values (row index plus jitter below 7), where σ cuts scattered
// patterns; and mirrored from the top, where a drawn 0 is 2^32-1 and σ keeps
// every row.
func fuzzBound(mode uint8, bound uint32, rows int64) uint32 {
	switch mode & 3 {
	case 1:
		return bound % storage.DateDomain
	case 2:
		return bound % uint32(rows+7)
	case 3:
		return ^bound
	}
	return bound
}

// fuzzWideLayout derives a partitioning of the wide table from the fuzz
// input: predAttr alone, every other column dealt in a shuffled order to a
// random partition it still fits in on the 64-byte test pages, or to a new
// one.
func fuzzWideLayout(tbl *schema.Table, groups uint64, predAttr int) []attrset.Set {
	rng := rand.New(rand.NewPCG(groups, groups^0x9e3779b97f4a7c15))
	parts := []attrset.Set{attrset.Single(predAttr)}
	sizes := []int{tbl.Columns[predAttr].Size}
	for _, a := range rng.Perm(len(tbl.Columns)) {
		if a == predAttr {
			continue
		}
		size := tbl.Columns[a].Size
		g := 1 + rng.IntN(len(parts)) // parts[0] is σ's alone; len(parts): a new one
		if g == len(parts) || sizes[g]+size > int(testDevice().BlockSize) {
			parts, sizes = append(parts, 0), append(sizes, 0)
			g = len(parts) - 1
		}
		parts[g], sizes[g] = parts[g].Add(a), sizes[g]+size
	}
	return parts
}

// fuzzLayout derives a covering disjoint partitioning from the fuzz input:
// three bits per column pick one of up to four groups.
func fuzzLayout(tbl *schema.Table, groups uint64) []attrset.Set {
	sets := make([]attrset.Set, 4)
	for col := range tbl.Columns {
		g := (groups >> (3 * col)) & 3
		sets[g] = sets[g].Add(col)
	}
	var parts []attrset.Set
	for _, s := range sets {
		if !s.IsEmpty() {
			parts = append(parts, s)
		}
	}
	return parts
}

// FuzzPlanVsOracle checks, for a random layout, projection set, and
// optional pushed-down predicate, that the pipeline returns EXACTLY the
// rows a trivial oracle derives straight from the deterministic generator
// — same IDs, same bytes, same order — and that a predicate-free plan's
// measured stats equal the row-at-a-time scan's bit for bit.
func FuzzPlanVsOracle(f *testing.F) {
	f.Add(uint64(1), uint64(0), uint16(0x0f), uint16(0), uint32(0))
	f.Add(uint64(2), uint64(0x15a5), uint16(0xff), uint16(3), uint32(1000))
	f.Add(uint64(3), uint64(0x9249), uint16(0x31), uint16(11), uint32(1<<31))
	f.Add(uint64(4), uint64(0x4444), uint16(0x80), uint16(5), uint32(40))
	f.Fuzz(func(t *testing.T, seed, groups uint64, qmask, predSel uint16, bound uint32) {
		const rows = 257
		tbl := fuzzTable(rows)
		parts := fuzzLayout(tbl, groups)
		layout, err := partition.New(tbl, parts)
		if err != nil {
			t.Fatalf("fuzzLayout built an invalid partitioning: %v", err)
		}
		dev := testDevice()
		e, err := storage.NewEngine(layout, dev, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		if err := e.Load(storage.NewGenerator(int64(seed)), rows); err != nil {
			t.Fatal(err)
		}

		query := attrset.Set(qmask & 0xff)
		var pred *Pred
		if predSel&1 != 0 {
			u32 := u32Cols(tbl)
			p := U32Less(u32[int(predSel>>1)%len(u32)], bound)
			pred = &p
		}

		pipe, err := Build(e.Snapshot(), dev, query, pred)
		if err != nil {
			t.Fatal(err)
		}
		type gotRow struct {
			id   int64
			vals []byte
		}
		qcols := query.Attrs()
		var got []gotRow
		res, err := pipe.RunFunc(func(r *Row) error {
			g := gotRow{id: r.ID}
			for _, a := range qcols {
				g.vals = append(g.vals, r.Col(a)...)
			}
			got = append(got, g)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}

		// The oracle: regenerate every row from the data generator, apply
		// the predicate to the generated bytes, concatenate the projected
		// columns.
		gen := storage.NewGenerator(int64(seed))
		colBuf := make([][]byte, len(tbl.Columns))
		for i, c := range tbl.Columns {
			colBuf[i] = make([]byte, c.Size)
		}
		var want []gotRow
		for r := int64(0); r < rows; r++ {
			if pred != nil {
				gen.Value(tbl.Columns[pred.Attr], r, colBuf[pred.Attr])
				if !pred.match(colBuf[pred.Attr]) {
					continue
				}
			}
			w := gotRow{id: r}
			for _, a := range qcols {
				gen.Value(tbl.Columns[a], r, colBuf[a])
				w.vals = append(w.vals, colBuf[a]...)
			}
			want = append(want, w)
		}
		if query.IsEmpty() && pred == nil {
			want = nil // an empty plan emits nothing
		}

		if len(got) != len(want) {
			t.Fatalf("pipeline returned %d rows, oracle %d (layout %v query %v pred %v)",
				len(got), len(want), parts, query, pred)
		}
		for i := range got {
			if got[i].id != want[i].id || !bytes.Equal(got[i].vals, want[i].vals) {
				t.Fatalf("row %d: got id=%d % x, oracle id=%d % x",
					i, got[i].id, got[i].vals, want[i].id, want[i].vals)
			}
		}

		if pred == nil {
			if scan := rowScan(t, e.Snapshot(), dev, query); !reflect.DeepEqual(res.Stats, scan) {
				t.Fatalf("predicate-free pipeline stats diverge from the row scan\n got %+v\nwant %+v",
					res.Stats, scan)
			}
		}
	})
}

// FuzzVectorVsRowOracle checks, for a random layout, row count, projection
// set, predicate, batch size and backend, that the zero-copy vector pipeline
// reproduces BOTH its oracles exactly — the row pipeline (row_test.go) and
// the reference copying vector pipeline (reference_test.go): same row stream
// (IDs and bytes, in order), same checksum, and bit-identical ScanStats and
// per-operator OpStats down to Float64bits of every SimTime.
//
// The seeds are chosen for what makes page runs interesting on the 64-byte
// test pages: batch sizes coprime to every partition's rows-per-page, row
// counts that end mid-page, the all-in-one layout whose 39-byte row leaves
// ONE row per page, 1-row batches, batches larger than the table, leaves
// whose page boundaries never coincide, and the file backend (real page
// buffers recycled through the cursor's ring, via vfs). σ reads any int or
// date column (predSel picks it) at a bound read in fuzzBound's four ranges,
// among them the empty and the full selection. Shape bit 3 swaps in the
// wide table (fuzzWideTable): attrset.MaxAttrs columns, any of its 32 u32
// columns σ's, alone in its partition, the query the 16-bit mask repeated
// across all 64.
func FuzzVectorVsRowOracle(f *testing.F) {
	// Arguments: seed, groups, qmask, predSel, bound, batchRaw (batch-1),
	// rowsRaw (rows-1), shape (bit 0: file backend; bits 1-2: fuzzBound's
	// mode; bit 3: the wide table).
	f.Add(uint64(1), uint64(0), uint16(0x0f), uint16(0), uint32(0), uint16(1), uint16(256), uint8(0))
	f.Add(uint64(2), uint64(0x15a5), uint16(0xff), uint16(3), uint32(1000), uint16(6), uint16(256), uint8(2))
	f.Add(uint64(3), uint64(0x9249), uint16(0x31), uint16(11), uint32(1<<31), uint16(63), uint16(256), uint8(5))
	f.Add(uint64(4), uint64(0x4444), uint16(0x80), uint16(5), uint32(40), uint16(271), uint16(256), uint8(1))
	// One row per page (groups 0 = one 39-byte partition): 1-row batches in
	// memory, 7-row batches on the file backend.
	f.Add(uint64(5), uint64(0), uint16(0xff), uint16(3), uint32(1263), uint16(0), uint16(40), uint8(0))
	f.Add(uint64(6), uint64(0), uint16(0xa5), uint16(9), uint32(60), uint16(6), uint16(99), uint8(1))
	// Four two-column groups at 8, 8, 4 and 6 rows per page: batches of 5 and
	// 11 rows are coprime to all of them, 299 rows end mid-page on every
	// leaf, and σ on an int column keeps its first 7 rows, every row (the
	// mirrored bound), then about three quarters of them.
	f.Add(uint64(7), uint64(0o76543210), uint16(0xff), uint16(5), uint32(7), uint16(4), uint16(298), uint8(4))
	f.Add(uint64(8), uint64(0o76543210), uint16(0x5b), uint16(13), uint32(9), uint16(10), uint16(298), uint8(7))
	f.Add(uint64(9), uint64(0o76543210), uint16(0x3c), uint16(5), uint32(1<<20), uint16(4), uint16(299), uint8(4))
	// 8, 5, 8 and 5 rows per page, 37-row batches, half a date's domain,
	// file backend.
	f.Add(uint64(10), uint64(0o00112233), uint16(0xff), uint16(3), uint32(1263), uint16(36), uint16(299), uint8(3))
	// A 28-byte leaf (2 rows per page) beside 3- and 4-byte ones (21 and 16
	// per page): a 13-row batch spans seven pages of one and at most two of
	// the others.
	f.Add(uint64(11), uint64(0o00012003), uint16(0xfe), uint16(9), uint32(150), uint16(12), uint16(200), uint8(1))
	// The wide table: 1-row batches on the file backend, batches of 13, 64
	// and past the table's end under σ on its last date, on an int, on a
	// middle date keeping every row, and none, and a projection of every
	// column.
	f.Add(uint64(12), uint64(1), uint16(0xffff), uint16(127), uint32(1263), uint16(0), uint16(40), uint8(9))
	f.Add(uint64(13), uint64(2), uint16(0x5a3c), uint16(5), uint32(1<<20), uint16(12), uint16(298), uint8(10))
	f.Add(uint64(14), uint64(3), uint16(0x8001), uint16(0), uint32(0), uint16(63), uint16(150), uint8(8))
	f.Add(uint64(15), uint64(4), uint16(0x0ff0), uint16(99), uint32(7), uint16(199), uint16(99), uint8(15))
	// The empty selection (bound 0) on both tables, and the full one
	// (2^32-1) on the narrow table.
	f.Add(uint64(16), uint64(0x15a5), uint16(0xff), uint16(3), uint32(0), uint16(6), uint16(256), uint8(0))
	f.Add(uint64(17), uint64(5), uint16(0xffff), uint16(41), uint32(0), uint16(30), uint16(200), uint8(8))
	f.Add(uint64(18), uint64(0o76543210), uint16(0xff), uint16(1), uint32(0), uint16(4), uint16(298), uint8(6))
	// The empty plan: no column and no σ, whose checksum is the seed.
	f.Add(uint64(15), uint64(16434968), uint16(0), uint16(86), uint32(9), uint16(9), uint16(298), uint8('+'))
	f.Fuzz(func(t *testing.T, seed, groups uint64, qmask, predSel uint16, bound uint32, batchRaw, rowsRaw uint16, shape uint8) {
		rows := int64(rowsRaw)%300 + 1 // [1, 300]
		tbl := fuzzTable(rows)
		query := attrset.Set(qmask & 0xff)
		u32 := u32Cols(tbl)
		predAttr := u32[int(predSel>>1)%len(u32)]
		parts := fuzzLayout(tbl, groups)
		if shape&8 != 0 {
			tbl = fuzzWideTable(rows)
			query = attrset.Set(uint64(qmask) * 0x0001000100010001)
			u32 = u32Cols(tbl)
			predAttr = u32[int(predSel>>1)%len(u32)]
			parts = fuzzWideLayout(tbl, groups, predAttr)
		}
		layout, err := partition.New(tbl, parts)
		if err != nil {
			t.Fatalf("fuzzLayout built an invalid partitioning: %v", err)
		}
		dev := testDevice()
		var newBackend func(string, int) (storage.Backend, error)
		if shape&1 != 0 {
			fsys, err := vfs.Dir(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			newBackend = func(name string, pageSize int) (storage.Backend, error) {
				return storage.NewFileBackendFS(fsys, name, pageSize)
			}
		}
		e, err := storage.NewEngine(layout, dev, newBackend)
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		if err := e.Load(storage.NewGenerator(int64(seed)), rows); err != nil {
			t.Fatal(err)
		}
		snap := e.Snapshot()

		var pred *Pred
		if predSel&1 != 0 {
			p := U32Less(predAttr, fuzzBound(shape>>1, bound, rows))
			pred = &p
		}
		batch := int(batchRaw)%(int(rows)+16) + 1 // [1, rows+16]

		type gotRow struct {
			id   int64
			vals []byte
		}
		qcols := query.Attrs()
		var out []gotRow
		keep := func(r *Row) error {
			g := gotRow{id: r.ID}
			for _, a := range qcols {
				g.vals = append(g.vals, r.Col(a)...)
			}
			out = append(out, g)
			return nil
		}
		collect := func(run func(fn func(*Row) error) (Result, error)) ([]gotRow, Result) {
			out = nil
			res, err := run(keep)
			if err != nil {
				t.Fatal(err)
			}
			return out, res
		}

		rowPipe, err := buildRow(snap, dev, query, pred)
		if err != nil {
			t.Fatal(err)
		}
		rowRows, rowRes := collect(rowPipe.RunFunc)
		refRows, refRes := collect(func(fn func(*Row) error) (Result, error) {
			return refRun(snap, dev, query, pred, batch, fn)
		})
		vecPipe, err := BuildExec(snap, dev, query, pred, ExecOptions{BatchSize: batch})
		if err != nil {
			t.Fatal(err)
		}
		gotRows, got := collect(vecPipe.RunFunc)

		for _, oracle := range []struct {
			name string
			rows []gotRow
			res  Result
		}{{"row pipeline", rowRows, rowRes}, {"reference vector pipeline", refRows, refRes}} {
			resultsEqual(t, fmt.Sprintf("vs %s (batch %d, %d rows)", oracle.name, batch, rows), got, oracle.res)
			if len(gotRows) != len(oracle.rows) {
				t.Fatalf("vector emitted %d rows, %s %d", len(gotRows), oracle.name, len(oracle.rows))
			}
			for i := range gotRows {
				if gotRows[i].id != oracle.rows[i].id || !bytes.Equal(gotRows[i].vals, oracle.rows[i].vals) {
					t.Fatalf("row %d: vector id=%d % x, %s id=%d % x",
						i, gotRows[i].id, gotRows[i].vals, oracle.name, oracle.rows[i].id, oracle.rows[i].vals)
				}
			}
		}
		if !reflect.DeepEqual(got.FillRatios, refRes.FillRatios) {
			t.Fatalf("fill ratios diverge from the reference\n got %v\nwant %v", got.FillRatios, refRes.FillRatios)
		}
	})
}
