package operator

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"strings"
	"testing"

	"knives/internal/algorithms"
	"knives/internal/attrset"
	"knives/internal/cost"
	"knives/internal/partition"
	"knives/internal/schema"
	"knives/internal/storage"
)

// groupDevices are the three presets at a small block geometry — 512-byte
// pages, a 2 KiB buffer — so a fuzzed table of a few hundred rows spans many
// pages and buffer refills while each device keeps its pricing discipline.
func groupDevices() []cost.Device {
	var devs []cost.Device
	for _, d := range []cost.Device{cost.HDDDevice(), cost.SSDDevice(), cost.MMDevice()} {
		devs = append(devs, d.WithBlockSize(512).WithBuffer(2048))
	}
	return devs
}

// groupBatchSizes are the rows per batch a fuzzed group runs at: one row, a
// prime no page's row count divides, the default, and the largest the
// served path would see.
var groupBatchSizes = []int{1, 31, 1024, 4096}

// groupCase derives a table, a layout, a predicate and up to 24 projections
// from one seed. σ's attribute is any column, made an int or a date. Its
// bound (shape mod 6) keeps nothing (0), every row (1) or a scattered cut
// (2, 3: the attribute's value at row pivot); 4 and 5 draw no σ.
// Projections are drawn to hit what a group shares and what it must not:
// duplicates, empty ones, single attributes, ones inside σ's partition, and
// extensions and truncations of earlier ones (shared prefixes that then
// diverge). Shapes 6-11 draw a wide table instead: 13 to attrset.MaxAttrs
// columns, MaxAttrs half the time, over 8-15 partitions, σ's attribute
// alone in its own — every slice sized by the table, at the limit.
func groupCase(seed uint64, nproj uint8, shape uint8) (cols []schema.Column, parts []attrset.Set, predAttr, form int, pivot uint64, queries []attrset.Set) {
	rng := rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
	wide := shape%12 >= 6
	ncols := 1 + rng.IntN(12)
	if wide {
		ncols = attrset.MaxAttrs
		if rng.IntN(2) == 0 {
			ncols -= rng.IntN(attrset.MaxAttrs - 12)
		}
	}
	for i := 0; i < ncols; i++ {
		c := schema.Column{Name: fmt.Sprintf("g%d", i)}
		switch rng.IntN(5) {
		case 0:
			c.Kind, c.Size = schema.KindInt, 4
		case 1:
			c.Kind, c.Size = schema.KindDate, 4
		case 2:
			c.Kind, c.Size = schema.KindDecimal, 8
		case 3:
			c.Kind, c.Size = schema.KindChar, 1+rng.IntN(30)
		default:
			c.Kind, c.Size = schema.KindVarchar, 1+rng.IntN(30)
		}
		cols = append(cols, c)
	}
	groups := make([]attrset.Set, 1+rng.IntN(4))
	if wide {
		groups = make([]attrset.Set, 8+rng.IntN(8))
	}
	for a := range cols {
		g := rng.IntN(len(groups))
		groups[g] = groups[g].Add(a)
	}
	predAttr, pivot = rng.IntN(ncols), rng.Uint64()
	cols[predAttr].Kind, cols[predAttr].Size = schema.KindInt, 4
	if rng.IntN(2) == 0 {
		cols[predAttr].Kind = schema.KindDate
	}
	if wide {
		for g := range groups {
			groups[g] = groups[g].Remove(predAttr)
		}
		groups = append(groups, attrset.Single(predAttr))
	}
	for _, g := range groups {
		if !g.IsEmpty() {
			parts = append(parts, g)
		}
	}

	form = int(shape % 6) // 0-3: groupBound's bounds; 4, 5: no predicate
	home := parts[0]      // σ's partition, or any one without σ
	for _, p := range parts {
		if p.Has(predAttr) {
			home = p
		}
	}
	random := func(within attrset.Set) attrset.Set {
		var q attrset.Set
		for _, a := range within.Attrs() {
			if rng.IntN(2) == 0 {
				q = q.Add(a)
			}
		}
		return q
	}
	all := attrset.All(ncols)
	for i := 0; i < 1+int(nproj)%24; i++ {
		var q attrset.Set
		switch k := rng.IntN(8); {
		case k == 0 && i > 0: // a duplicate
			q = queries[rng.IntN(i)]
		case k == 1: // empty
		case k == 2: // one attribute
			q = attrset.Single(rng.IntN(ncols))
		case k == 3: // inside σ's partition
			q = random(home)
		case k >= 4 && i > 0: // an earlier one's prefix, then its own tail
			prev := queries[rng.IntN(i)].Attrs()
			keep := rng.IntN(len(prev) + 1)
			q = attrset.Of(prev[:keep]...)
			if keep > 0 {
				q = q.Union(random(all.Minus(attrset.All(prev[keep-1] + 1))))
			} else {
				q = random(all)
			}
		default:
			q = random(all)
		}
		queries = append(queries, q)
	}
	return cols, parts, predAttr, form, pivot, queries
}

// groupBound is σ's bound for a form: 0, which keeps nothing; 2^32-1,
// which keeps every row; and attr's generated value at row pivot % rows,
// which keeps some rows and drops others.
func groupBound(tbl *schema.Table, seed int64, form, attr int, pivot uint64) uint32 {
	switch form {
	case 0:
		return 0
	case 1:
		return math.MaxUint32
	}
	v := make([]byte, 4)
	storage.NewGenerator(seed).Value(tbl.Columns[attr], int64(pivot%uint64(tbl.Rows)), v)
	return binary.LittleEndian.Uint32(v)
}

// FuzzGroupVsAlone holds RunGroup to its contract: every member's Result —
// rows, checksum, ScanStats with its per-partition breakdown, per-operator
// OpStats and fill ratios — equals the one its pipeline returns run alone,
// field for field, and its checksum equals the row oracle's, on every
// device and at every batch size, with σ keeping nothing, everything or a
// scattered cut, or with no σ.
func FuzzGroupVsAlone(f *testing.F) {
	// Arguments: seed, nproj (projections-1, mod 24), shape (σ's bound mod 6;
	// 6-11 mod 12 draw a wide table), rowsRaw (rows-1, mod 700).
	f.Add(uint64(1), uint8(16), uint8(0), uint16(499))
	f.Add(uint64(2), uint8(23), uint8(1), uint16(699))
	f.Add(uint64(3), uint8(8), uint8(2), uint16(256))
	f.Add(uint64(4), uint8(12), uint8(3), uint16(333))
	f.Add(uint64(5), uint8(20), uint8(4), uint16(600))
	f.Add(uint64(6), uint8(0), uint8(0), uint16(40))
	f.Add(uint64(7), uint8(5), uint8(5), uint16(0))
	f.Add(uint64(8), uint8(23), uint8(0), uint16(150))
	// Wide tables, under each bound and none.
	f.Add(uint64(9), uint8(23), uint8(6), uint16(299))
	f.Add(uint64(11), uint8(15), uint8(8), uint16(120))
	f.Add(uint64(13), uint8(9), uint8(10), uint16(60))
	f.Add(uint64(17), uint8(20), uint8(9), uint16(511))
	f.Add(uint64(11), uint8(23), uint8(7), uint16(699))
	f.Fuzz(func(t *testing.T, seed uint64, nproj, shape uint8, rowsRaw uint16) {
		rows := int64(rowsRaw)%700 + 1
		cols, parts, predAttr, form, pivot, queries := groupCase(seed, nproj, shape)
		tbl, err := schema.NewTable("group", rows, cols)
		if err != nil {
			t.Fatal(err)
		}
		layout, err := partition.New(tbl, parts)
		if err != nil {
			t.Fatalf("groupCase built an invalid partitioning: %v", err)
		}
		var pred *Pred
		if form < 4 {
			p := U32Less(predAttr, groupBound(tbl, int64(seed), form, predAttr, pivot))
			pred = &p
		}
		for _, dev := range groupDevices() {
			e, err := storage.NewEngine(layout, dev, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			if err := e.Load(storage.NewGenerator(int64(seed)), rows); err != nil {
				t.Fatal(err)
			}
			snap := e.Snapshot()
			oracle := make([]Result, len(queries))
			for i, q := range queries {
				rowPipe, err := buildRow(snap, dev, q, pred)
				if err != nil {
					t.Fatal(err)
				}
				if oracle[i], err = rowPipe.Run(); err != nil {
					t.Fatal(err)
				}
			}
			for _, batch := range groupBatchSizes {
				opts := ExecOptions{BatchSize: batch}
				group := make([]*Pipeline, len(queries))
				for i, q := range queries {
					if group[i], err = BuildExec(snap, dev, q, pred, opts); err != nil {
						t.Fatal(err)
					}
				}
				got, err := RunGroup(group)
				if err != nil {
					t.Fatalf("%s batch %d: %v", dev.Name, batch, err)
				}
				for i, q := range queries {
					alone, err := BuildExec(snap, dev, q, pred, opts)
					if err != nil {
						t.Fatal(err)
					}
					want, err := alone.Run()
					if err != nil {
						t.Fatal(err)
					}
					label := fmt.Sprintf("%s batch %d, member %d of %d (%v over %v, σ %v)",
						dev.Name, batch, i, len(queries), q, parts, pred != nil)
					if !reflect.DeepEqual(got[i], want) {
						t.Fatalf("%s: group result differs from the pipeline alone\n got %+v\nwant %+v", label, got[i], want)
					}
					if got[i].Checksum != oracle[i].Checksum || got[i].Rows != oracle[i].Rows {
						t.Fatalf("%s: checksum %x (%d rows), row oracle %x (%d rows)",
							label, got[i].Checksum, got[i].Rows, oracle[i].Checksum, oracle[i].Rows)
					}
				}
			}
		}
	})
}

// TestRunGroupContract covers what a group refuses: members over different
// snapshots, predicates or batch sizes, a pipeline that already ran, one
// listed twice — and what it allows: an empty group, empty plans beside
// others.
func TestRunGroupContract(t *testing.T) {
	dev := testDevice()
	e := loadEngine(t, testTable(t, 200), testLayouts["grouped"], dev, 3)
	other := loadEngine(t, testTable(t, 200), testLayouts["grouped"], dev, 3)
	snap := e.Snapshot()
	p1, p2 := U32Less(1, 900), U32Less(1, 900)
	build := func(s *storage.Snapshot, q attrset.Set, p *Pred, batch int) *Pipeline {
		t.Helper()
		pipe, err := BuildExec(s, dev, q, p, ExecOptions{BatchSize: batch})
		if err != nil {
			t.Fatal(err)
		}
		return pipe
	}
	q := attrset.Of(0, 1)
	if res, err := RunGroup(nil); err != nil || res != nil {
		t.Errorf("empty group: %v, %v", res, err)
	}
	ran := build(snap, q, nil, 0)
	if _, err := ran.Run(); err != nil {
		t.Fatal(err)
	}
	twice := build(snap, q, nil, 0)
	for name, pipes := range map[string][]*Pipeline{
		"two snapshots":  {build(snap, q, nil, 0), build(other.Snapshot(), q, nil, 0)},
		"two predicates": {build(snap, q, &p1, 0), build(snap, q, &p2, 0)},
		"σ beside none":  {build(snap, q, &p1, 0), build(snap, q, nil, 0)},
		"two batches":    {build(snap, q, nil, 64), build(snap, q, nil, 65)},
		"already ran":    {build(snap, q, nil, 0), ran},
		"listed twice":   {twice, build(snap, q, nil, 0), twice},
	} {
		if _, err := RunGroup(pipes); err == nil {
			t.Errorf("%s: group accepted", name)
		}
	}
	// Out of step while running: a member one batch ahead, and a member
	// whose batches lose their first row on the way to π.
	ahead := []*Pipeline{build(snap, q, nil, 64), build(snap, q, nil, 64)}
	if _, err := ahead[1].proj.child.NextBatch(); err != nil {
		t.Fatal(err)
	}
	thinned := []*Pipeline{build(snap, q, nil, 64), build(snap, q, nil, 64)}
	thinned[1].proj.child = dropFirstRow{thinned[1].proj.child}
	for name, pipes := range map[string][]*Pipeline{"a batch ahead": ahead, "another selection": thinned} {
		if _, err := RunGroup(pipes); err == nil || !strings.Contains(err.Error(), "out of step") {
			t.Errorf("%s: %v, want an out-of-step error", name, err)
		}
	}

	res, err := RunGroup([]*Pipeline{build(snap, attrset.Of(), nil, 0), build(snap, q, nil, 0), build(snap, attrset.Of(), nil, 0)})
	if err != nil || res[0].Rows != 0 || len(res[0].Ops) != 0 || res[1].Rows != 200 || res[2].Rows != 0 ||
		res[0].Checksum != storage.ChecksumSeed || res[2].Stats.Checksum != storage.ChecksumSeed {
		t.Errorf("empty plans beside a full one: %+v, %v", res, err)
	}
}

// TestGroupDigestHashesEachCellOnce pins what one group saves on the served
// shape: lineitem's 17 queries over its pinned HillClimb layout. Alone, each
// pipeline hashes every cell it projects, 74 per row; the group digest
// lists each distinct projected column once and hashes 14 per row, the
// union of the queries' columns.
func TestGroupDigestHashesEachCellOnce(t *testing.T) {
	b := schema.TPCH(10)
	tw := b.Workload.ForTable(b.Table("lineitem"))
	pins, err := algorithms.ReadPins("../algorithms/testdata/layouts.golden")
	if err != nil {
		t.Fatal(err)
	}
	_, layout, err := pins.Find("TPC-H", tw.Table, "hdd", "HillClimb")
	if err != nil {
		t.Fatal(err)
	}
	sample, err := schema.NewTable(tw.Table.Name, 2_000, tw.Table.Columns)
	if err != nil {
		t.Fatal(err)
	}
	dev := cost.HDDDevice()
	snap := loadEngine(t, sample, layout.Parts, dev, 1).Snapshot()
	var pipes []*Pipeline
	var union attrset.Set
	alone := 0
	for _, q := range tw.Queries {
		p, err := BuildExec(snap, dev, q.Attrs, nil, ExecOptions{})
		if err != nil {
			t.Fatal(err)
		}
		pipes = append(pipes, p)
		alone += len(p.proj.cols)
		union = union.Union(p.proj.attrs)
	}
	d := newGroupDigest(pipes)
	var listed attrset.Set
	for _, c := range d.cols {
		listed = listed.Add(c.attr)
	}
	if len(pipes) != 17 || alone != 74 || len(d.cols) != 14 || listed != union {
		t.Errorf("%d queries hash %d cells per row alone and %d (%v) in one group, want 17, 74 and 14 (%v)",
			len(pipes), alone, len(d.cols), listed, union)
	}
}

// dropFirstRow deselects every batch's first slot: a member whose selection
// disagrees with its group's.
type dropFirstRow struct{ VecOperator }

func (d dropFirstRow) NextBatch() (*Batch, error) {
	b, err := d.VecOperator.NextBatch()
	if b != nil {
		b.sel = nil
		for i := 1; i < b.n; i++ {
			b.sel = append(b.sel, int32(i))
		}
	}
	return b, err
}
