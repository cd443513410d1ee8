package cost

import (
	"math"
	"math/rand"
	"testing"

	"knives/internal/attrset"
	"knives/internal/schema"
)

// PartitionCost keeps its own inlined seek arithmetic for kernel speed;
// PartitionSeeks is the exported decomposition the replay subsystem
// predicts integer seeks with. This pin keeps the two in lockstep: for any
// disk and any (rows, rowSize, totalRowSize), the cost must equal
// SeekTime*seeks + blocks*blockSize/bandwidth, bit for bit.
func TestPartitionCostDecomposes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 2_000; trial++ {
		d := Disk{
			BlockSize:     int64(64 << rng.Intn(9)), // 64 .. 16384
			BufferSize:    1 + rng.Int63n(1<<24),
			ReadBandwidth: 1 + rng.Float64()*100e6,
			SeekTime:      rng.Float64() * 1e-2,
		}
		rows := rng.Int63n(5_000_000)
		rowSize := 1 + rng.Int63n(500)
		totalRowSize := rowSize + rng.Int63n(1_000)
		tab, err := schema.NewTable("t", rows, []schema.Column{{Name: "a", Size: 1}})
		if err != nil {
			t.Fatal(err)
		}
		m := NewHDD(d)
		seeks := PartitionSeeks(rows, rowSize, totalRowSize, d)
		blocks := PartitionBlocks(rows, rowSize, d.BlockSize)
		want := d.SeekTime*float64(seeks) + float64(blocks)*float64(d.BlockSize)/d.ReadBandwidth
		if got := m.PartitionCost(tab, rowSize, totalRowSize); got != want {
			t.Fatalf("trial %d: PartitionCost = %.18g, decomposition = %.18g (disk %+v rows %d rowSize %d total %d)",
				trial, got, want, d, rows, rowSize, totalRowSize)
		}
	}
	if got := PartitionSeeks(1000, 0, 8, DefaultDisk()); got != 0 {
		t.Errorf("zero row size: %d seeks, want 0", got)
	}
	if got := PartitionSeeks(1000, 8, 0, DefaultDisk()); got != 0 {
		t.Errorf("zero total row size: %d seeks, want 0", got)
	}
}

// The per-term price the bottom-up merge loop sums is a reused memo's
// lookup: one PartitionCostMemo, Reset from one table and device to the
// next, must answer every (rowSize, totalRowSize) pair with DeviceModel's
// PartitionCost float, bit for bit — on the first lookup, on a hit, and
// never with a price cached for the previous table.
func TestPartitionCostMemoTermIsPartitionCost(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var memo PartitionCostMemo
	for trial := 0; trial < 300; trial++ {
		d := Disk{
			BlockSize:     int64(64 << rng.Intn(9)), // 64 .. 16384
			BufferSize:    1 + rng.Int63n(1<<24),
			ReadBandwidth: 1 + rng.Float64()*100e6,
			SeekTime:      rng.Float64() * 1e-2,
		}
		switch trial % 4 {
		case 1:
			d.BufferSize = 1 + rng.Int63n(d.BlockSize-1) // below one block: the blocksBuff clamp
		case 2:
			d.BufferSize = 1<<62 + rng.Int63n(1<<61) // Buff*rowSize past int64
		}
		var m *DeviceModel
		if trial%5 == 4 {
			m = NewMM()
		} else {
			m = NewHDD(d)
		}
		tab, err := schema.NewTable("t", rng.Int63n(5_000_000), []schema.Column{{Name: "a", Size: 1}})
		if err != nil {
			t.Fatal(err)
		}
		memo.Reset(m, tab)
		for k := 0; k < 200; k++ {
			// Narrow ranges, so pairs repeat within a trial and across trials.
			rowSize := 1 + rng.Int63n(40)
			totalRowSize := rowSize + rng.Int63n(40)
			want := m.PartitionCost(tab, rowSize, totalRowSize)
			for pass := 0; pass < 2; pass++ {
				if got := memo.Cost(rowSize, totalRowSize); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("trial %d pass %d: memo.Cost(%d, %d) = %.18g, PartitionCost = %.18g (device %+v rows %d)",
						trial, pass, rowSize, totalRowSize, got, want, m.Device(), tab.Rows)
				}
			}
		}
	}
}

// A bigger buffer never prices a query higher. The proportional split
// multiplies the buffer by a row size; in int64 that product wrapped for
// buffers near 2^62, and a 1M-row table of two char(100) parts read together
// priced at 12346 seeks per part at 2^62 bytes against 1 at 2^40.
func TestQueryCostNeverRisesWithBuffer(t *testing.T) {
	tab := schema.MustTable("t", 1_000_000, []schema.Column{
		{Name: "a", Kind: schema.KindChar, Size: 100},
		{Name: "b", Kind: schema.KindChar, Size: 100},
		{Name: "c", Kind: schema.KindInt, Size: 4},
	})
	layouts := [][]attrset.Set{
		{attrset.Of(0), attrset.Of(1), attrset.Of(2)},
		{attrset.Of(0, 2), attrset.Of(1)},
	}
	queries := []attrset.Set{attrset.Of(0, 1), attrset.Of(0, 1, 2), attrset.Of(1, 2)}
	for _, preset := range []Device{HDDDevice(), SSDDevice()} {
		prev := map[[2]int]float64{}
		for buf := preset.BufferSize; ; {
			m, err := NewDeviceModel(preset.WithBuffer(buf))
			if err != nil {
				t.Fatal(err)
			}
			for li, parts := range layouts {
				for qi, q := range queries {
					got := m.QueryCost(tab, parts, q)
					key := [2]int{li, qi}
					if p, ok := prev[key]; ok && got > p {
						t.Fatalf("%s: layout %d query %d costs %v at buffer %d, more than %v at half that",
							preset.Name, li, qi, got, buf, p)
					}
					prev[key] = got
				}
			}
			if buf >= 1<<62 {
				break
			}
			buf *= 2
		}
		if got := PartitionSeeks(tab.Rows, 100, 200, preset.WithBuffer(1<<62)); got != 1 {
			t.Errorf("%s: %d seeks per part at a 2^62-byte buffer, want 1", preset.Name, got)
		}
	}
}
