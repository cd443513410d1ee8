package operator

import (
	"bytes"
	"math"
	"testing"

	"knives/internal/attrset"
	"knives/internal/cost"
	"knives/internal/partition"
	"knives/internal/storage"
)

// Tests of the row digest as the executor and its two oracles compute it: what the
// checksum must notice, what a column-less row contributes, and that the
// group digest allocates only when it forms.

// editableStore loads the test table into memory backends the test keeps a
// handle on, so a test can corrupt the store BEFORE anything scans it (a mem
// backend hands out its own pages). cell returns attribute a's bytes of one
// row, in place.
type editableStore struct {
	e        *storage.Engine
	backends []storage.Backend // one per partition, canonical order
}

func newEditableStore(t *testing.T, rows int64, parts []attrset.Set, seed int64) *editableStore {
	t.Helper()
	layout, err := partition.New(testTable(t, rows), parts)
	if err != nil {
		t.Fatal(err)
	}
	s := &editableStore{}
	s.e, err = storage.NewEngine(layout, testDevice(), func(_ string, pageSize int) (storage.Backend, error) {
		b := storage.NewMemBackend(pageSize)
		s.backends = append(s.backends, b)
		return b, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.e.Close() })
	if err := s.e.Load(storage.NewGenerator(seed), rows); err != nil {
		t.Fatal(err)
	}
	return s
}

func (s *editableStore) cell(t *testing.T, a int, row int64) []byte {
	t.Helper()
	snap, dev := s.e.Snapshot(), testDevice()
	for i := 0; i < snap.NumParts(); i++ {
		if !snap.PartAttrs(i).Has(a) {
			continue
		}
		rs := snap.PartRowSize(i)
		off := 0
		for _, b := range snap.PartAttrs(i).Attrs() {
			if b == a {
				break
			}
			off += snap.Table().Columns[b].Size
		}
		w := snap.Table().Columns[a].Size
		perPage := dev.BlockSize / int64(rs)
		page, err := s.backends[i].ReadPage(row/perPage, nil)
		if err != nil {
			t.Fatal(err)
		}
		at := int(row%perPage)*rs + off
		return page[at : at+w]
	}
	t.Fatalf("attribute %d is in no partition", a)
	return nil
}

// checksums runs query over the store, without and with σ, through the
// pipeline, the row oracle and the reference; every one reading the same
// store must agree, whatever the store holds. It returns the predicate-free
// and the σ checksum.
func (s *editableStore) checksums(t *testing.T, label string, query attrset.Set, pred *Pred) (full, selected uint64) {
	t.Helper()
	snap, dev := s.e.Snapshot(), testDevice()
	for _, p := range []*Pred{nil, pred} {
		rowPipe, err := buildRow(snap, dev, query, p)
		if err != nil {
			t.Fatal(err)
		}
		row, err := rowPipe.Run()
		if err != nil {
			t.Fatal(err)
		}
		vecPipe, err := BuildExec(snap, dev, query, p, ExecOptions{BatchSize: 7})
		if err != nil {
			t.Fatal(err)
		}
		vec, err := vecPipe.Run()
		if err != nil {
			t.Fatal(err)
		}
		ref, err := refRun(snap, dev, query, p, 7, nil)
		if err != nil {
			t.Fatal(err)
		}
		if vec.Checksum != row.Checksum || ref.Checksum != row.Checksum || vec.Rows != row.Rows {
			t.Fatalf("%s: executors disagree on one store: row %x (%d rows), vector %x (%d rows), reference %x",
				label, row.Checksum, row.Rows, vec.Checksum, vec.Rows, ref.Checksum)
		}
		if p == nil {
			full = row.Checksum
		} else {
			selected = row.Checksum
		}
	}
	return full, selected
}

// TestChecksumSensitivity: what the byte-stream digest this replaced was
// never asked. On a small table, each of four corruptions of the stored
// rows — two rows swapped (the same multiset of rows), one column shifted by
// one row against the others (the same multiset of values per column), two
// equal-width columns swapped within one row (the same multiset of values
// per row), one bit of one value flipped — must change the checksum, in the
// pipeline and both its oracles alike, with and without σ.
func TestChecksumSensitivity(t *testing.T) {
	const rows, seed = 60, 5
	query := attrset.Of(0, 2, 3, 5)
	// A σ that keeps every row: the same result, through the selection-vector
	// side of the vector π.
	pred := U32Less(1, math.MaxUint32)
	for name, parts := range testLayouts {
		clean := newEditableStore(t, rows, parts, seed)
		wantFull, wantSel := clean.checksums(t, name+"/clean", query, &pred)

		corruptions := map[string]func(s *editableStore){
			"rows 17 and 18 swapped": func(s *editableStore) {
				for a := 0; a < 6; a++ {
					x, y := s.cell(t, a, 17), s.cell(t, a, 18)
					for i := range x {
						x[i], y[i] = y[i], x[i]
					}
				}
			},
			"column 3 shifted up one row": func(s *editableStore) {
				first := append([]byte(nil), s.cell(t, 3, 0)...)
				for r := int64(0); r+1 < rows; r++ {
					copy(s.cell(t, 3, r), s.cell(t, 3, r+1))
				}
				copy(s.cell(t, 3, rows-1), first)
			},
			"one bit of column 5, row 41": func(s *editableStore) {
				s.cell(t, 5, 41)[9] ^= 0x10
			},
			"one bit of column 0, row 0": func(s *editableStore) {
				s.cell(t, 0, 0)[0] ^= 0x01
			},
		}
		for what, corrupt := range corruptions {
			s := newEditableStore(t, rows, parts, seed)
			corrupt(s)
			gotFull, gotSel := s.checksums(t, name+"/"+what, query, &pred)
			if gotFull == wantFull {
				t.Errorf("%s layout, %s: checksum %x did not change", name, what, gotFull)
			}
			if gotSel == wantSel {
				t.Errorf("%s layout, %s: σ checksum %x did not change", name, what, gotSel)
			}
		}

		// Columns 0 and 4 (both 4-byte ints) swapped in row 23: a digest
		// keyed by row alone, not by (row, attribute), cannot see it.
		swapped := attrset.Of(0, 2, 4)
		wantFull, wantSel = clean.checksums(t, name+"/clean", swapped, &pred)
		s := newEditableStore(t, rows, parts, seed)
		x, y := s.cell(t, 0, 23), s.cell(t, 4, 23)
		if bytes.Equal(x, y) {
			t.Fatalf("%s layout: columns 0 and 4 of row 23 are equal; the swap changes nothing", name)
		}
		for i := range x {
			x[i], y[i] = y[i], x[i]
		}
		gotFull, gotSel := s.checksums(t, name+"/columns 0 and 4 swapped in row 23", swapped, &pred)
		if gotFull == wantFull || gotSel == wantSel {
			t.Errorf("%s layout, columns 0 and 4 swapped in row 23: checksums %x / σ %x did not change", name, gotFull, gotSel)
		}
	}
}

// TestDigestEmptyProjection pins the corner the executors could disagree on:
// σ on a column outside an EMPTY projection yields rows with no columns. The
// definition says such a row adds RowSeed alone, so the checksum counts the
// rows; a result with no rows — empty projection or not — is ChecksumSeed.
func TestDigestEmptyProjection(t *testing.T) {
	const rows = 100
	dev := testDevice()
	for name, parts := range testLayouts {
		e := loadEngine(t, testTable(t, rows), parts, dev, 4)
		snap := e.Snapshot()
		some, none := U32Less(1, storage.DateDomain/2), U32Less(1, 0)
		for _, tc := range []struct {
			label string
			query attrset.Set
			pred  Pred
		}{
			{"empty projection, some rows", 0, some},
			{"empty projection, no rows", 0, none},
			{"projection, no rows", attrset.Of(0, 3), none},
		} {
			rowPipe, err := buildRow(snap, dev, tc.query, &tc.pred)
			if err != nil {
				t.Fatal(err)
			}
			row, err := rowPipe.Run()
			if err != nil {
				t.Fatal(err)
			}
			ref, err := refRun(snap, dev, tc.query, &tc.pred, 16, nil)
			if err != nil {
				t.Fatal(err)
			}
			want := storage.ChecksumSeed + uint64(row.Rows)*storage.RowSeed
			if row.Checksum != want || ref.Checksum != want || ref.Rows != row.Rows {
				t.Errorf("%s, %s: row %x (%d rows), reference %x (%d rows), definition %x",
					name, tc.label, row.Checksum, row.Rows, ref.Checksum, ref.Rows, want)
			}
			if (row.Rows == 0) != (tc.pred == none) {
				t.Fatalf("%s, %s: %d rows — the case does not test what it says", name, tc.label, row.Rows)
			}
			for _, batch := range []int{1, 16, rows + 1} {
				vecPipe, err := BuildExec(snap, dev, tc.query, &tc.pred, ExecOptions{BatchSize: batch})
				if err != nil {
					t.Fatal(err)
				}
				vec, err := vecPipe.Run()
				if err != nil {
					t.Fatal(err)
				}
				if vec.Checksum != want || vec.Rows != row.Rows {
					t.Errorf("%s, %s, batch %d: vector %x (%d rows), definition %x (%d rows)",
						name, tc.label, batch, vec.Checksum, vec.Rows, want, row.Rows)
				}
			}
		}
	}
}

// TestDigestDoesNotAllocate: π's column list and totals belong to the
// group, sized when the group forms and reused for every batch. Digesting a
// batch, dense or through a selection vector, allocates nothing: for a
// group of one and for a group whose members share columns, duplicate one
// another, project nothing and project everything.
func TestDigestDoesNotAllocate(t *testing.T) {
	const rows = 1500
	dev := testDevice()
	e := loadEngine(t, testTable(t, rows), testLayouts["column"], dev, 6)
	snap := e.Snapshot()
	pred := U32Less(1, storage.DateDomain/2)
	groups := map[string][]attrset.Set{
		"one":    {attrset.All(6)},
		"shared": {attrset.Of(0, 1, 2), attrset.Of(0, 1, 3, 5), attrset.Of(0, 2), attrset.Of(0, 2), attrset.Of(), attrset.All(6)},
	}
	for name, queries := range groups {
		for _, p := range []*Pred{nil, &pred} {
			var pipes []*Pipeline
			for _, q := range queries {
				pipe, err := BuildExec(snap, dev, q, p, ExecOptions{BatchSize: 700})
				if err != nil {
					t.Fatal(err)
				}
				if pipe.proj == nil {
					continue // the empty plan, without σ
				}
				if pipe.sel != nil {
					pipe.sel.memo = new(selMemo)
				}
				pipes = append(pipes, pipe)
			}
			dg := newGroupDigest(pipes)
			batches := make([]*Batch, len(pipes))
			for range 2 { // digest the second batch: every buffer has grown
				for i, pipe := range pipes {
					b, err := pipe.proj.child.NextBatch()
					if err != nil || b == nil {
						t.Fatalf("%s: no batch: %v", name, err)
					}
					batches[i] = b
				}
			}
			if allocs := testing.AllocsPerRun(20, func() { dg.digest(batches[0]) }); allocs != 0 {
				t.Errorf("%s group, σ=%v: digesting a batch allocates %.0f times", name, p != nil, allocs)
			}
		}
	}
}

// TestDigestAcrossPageRuns: on the served 8 KiB pages a narrow leaf holds
// hundreds of rows per page and a wide one a few dozen, so a batch's columns
// are summed over page runs that end at different slots in each partition.
// Where a run ends must not show: vector == row == reference, dense and
// under σ, for batches shorter than, equal to and longer than a page's rows.
func TestDigestAcrossPageRuns(t *testing.T) {
	const rows = 3000
	dev := cost.DefaultDisk()
	e := loadEngine(t, testTable(t, rows), testLayouts["column"], dev, 8)
	snap := e.Snapshot()
	pred := U32Less(1, storage.DateDomain/3)
	for _, query := range []attrset.Set{attrset.Of(0), attrset.Of(0, 4), attrset.Of(1, 2, 5)} {
		for _, p := range []*Pred{nil, &pred} {
			rowPipe, err := buildRow(snap, dev, query, p)
			if err != nil {
				t.Fatal(err)
			}
			row, err := rowPipe.Run()
			if err != nil {
				t.Fatal(err)
			}
			for _, batch := range []int{257, 1024, rows} {
				ref, err := refRun(snap, dev, query, p, batch, nil)
				if err != nil {
					t.Fatal(err)
				}
				vecPipe, err := BuildExec(snap, dev, query, p, ExecOptions{BatchSize: batch})
				if err != nil {
					t.Fatal(err)
				}
				vec, err := vecPipe.Run()
				if err != nil {
					t.Fatal(err)
				}
				if vec.Checksum != row.Checksum || ref.Checksum != row.Checksum || vec.Rows != row.Rows {
					t.Errorf("query %v σ=%v batch %d: vector %x (%d rows), row %x (%d rows), reference %x",
						query, p != nil, batch, vec.Checksum, vec.Rows, row.Checksum, row.Rows, ref.Checksum)
				}
			}
		}
	}
}
