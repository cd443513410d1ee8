package storage_test

import (
	"bytes"
	"math"
	"testing"

	"knives/internal/attrset"
	"knives/internal/cost"
	"knives/internal/experiments/compress"
	"knives/internal/partition"
	"knives/internal/schema"
	"knives/internal/storage"
)

// Tests of internal/experiments/compress, the codecs Table 7 prices with.
// The code left this package (it was never on the scan path); its tests stay
// in this directory, as an external test package, only because the growth
// driver's test floor pins them by package path and one PR may rename only a
// few tests — `git mv` this file beside the code in the next PR that has the
// budget for its nine names (CHANGES.md, PR 21).

func codecTable(t *testing.T, rows int64) *schema.Table {
	t.Helper()
	tab, err := schema.NewTable("t", rows, []schema.Column{
		{Name: "id", Kind: schema.KindInt, Size: 4},
		{Name: "price", Kind: schema.KindDecimal, Size: 8},
		{Name: "ship", Kind: schema.KindDate, Size: 4},
		{Name: "mode", Kind: schema.KindChar, Size: 10},
		{Name: "note", Kind: schema.KindVarchar, Size: 44},
	})
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func TestCodecsRoundTrip(t *testing.T) {
	tab := codecTable(t, 500)
	gen := storage.NewGenerator(9)
	for _, col := range tab.Columns {
		raw := make([]byte, 500*col.Size)
		for r := int64(0); r < 500; r++ {
			gen.Value(col, r, raw[int(r)*col.Size:int(r+1)*col.Size])
		}
		codecs := []compress.Codec{compress.FlateCodec{}, compress.DictCodec{}}
		if col.Size == 4 {
			codecs = append(codecs, compress.DeltaCodec{})
		}
		for _, c := range codecs {
			comp, err := c.Compress(raw, col.Size)
			if err != nil {
				t.Fatalf("%s/%s compress: %v", col.Name, c.Name(), err)
			}
			back, err := c.Decompress(comp, col.Size, len(raw))
			if err != nil {
				t.Fatalf("%s/%s decompress: %v", col.Name, c.Name(), err)
			}
			if string(back) != string(raw) {
				t.Errorf("%s/%s: round trip mismatch", col.Name, c.Name())
			}
		}
	}
}

func TestDeltaCodecRejectsBadInput(t *testing.T) {
	if _, err := (compress.DeltaCodec{}).Compress(make([]byte, 8), 8); err == nil {
		t.Error("delta accepted 8-byte values")
	}
	if _, err := (compress.DeltaCodec{}).Compress(make([]byte, 7), 4); err == nil {
		t.Error("delta accepted non-multiple length")
	}
}

func TestCompressionRatiosAreSane(t *testing.T) {
	tab := codecTable(t, 10_000)
	gen := storage.NewGenerator(13)
	for _, scheme := range []compress.CompressionScheme{compress.SchemeDefault, compress.SchemeDictionary} {
		ratios, err := compress.CompressionRatios(tab, gen, 5_000, scheme)
		if err != nil {
			t.Fatal(err)
		}
		for name, r := range ratios {
			if r <= 0 || r > 1.6 {
				t.Errorf("%v %s ratio = %v, out of sane range", scheme, name, r)
			}
		}
		// Integer keys delta-compress well; repetitive text flate-compresses.
		if scheme == compress.SchemeDefault {
			if ratios["id"] > 0.6 {
				t.Errorf("delta ratio for sequential ints = %v, expected < 0.6", ratios["id"])
			}
			if ratios["note"] > 0.9 {
				t.Errorf("flate ratio for text = %v, expected < 0.9", ratios["note"])
			}
		}
	}
	if _, err := compress.CompressionRatios(tab, gen, 0, compress.SchemeDefault); err == nil {
		t.Error("accepted zero sample rows")
	}
}

// Table 7's mechanism: under default (variable-length) compression a
// grouped layout pays a reconstruction CPU penalty that the column layout
// avoids; dictionary compression narrows the gap.
func TestCompressedScanTable7Mechanism(t *testing.T) {
	tab := codecTable(t, 1_000_000)
	gen := storage.NewGenerator(17)
	tw := schema.TableWorkload{Table: tab, Queries: []schema.TableQuery{
		{ID: "q", Weight: 1, Attrs: attrset.Of(0, 1)},
	}}
	d := cost.DefaultDisk()
	grouped := []attrset.Set{attrset.Of(0, 1), attrset.Of(2), attrset.Of(3), attrset.Of(4)}
	col := partition.Column(tab).Parts
	const joinCPU = 50e-9

	for _, scheme := range []compress.CompressionScheme{compress.SchemeDefault, compress.SchemeDictionary} {
		ratios, err := compress.CompressionRatios(tab, gen, 5_000, scheme)
		if err != nil {
			t.Fatal(err)
		}
		g := compress.CompressedScanSeconds(tw, grouped, d, ratios, scheme, joinCPU)
		c := compress.CompressedScanSeconds(tw, col, d, ratios, scheme, joinCPU)
		if g <= 0 || c <= 0 {
			t.Fatalf("%v: non-positive scan seconds", scheme)
		}
		if scheme == compress.SchemeDefault && g <= c {
			t.Errorf("default compression: grouped (%v) should cost more than column (%v)", g, c)
		}
		if scheme == compress.SchemeDictionary {
			gap := math.Abs(g-c) / c
			if gap > 0.3 {
				t.Errorf("dictionary compression: gap %.0f%% too large", gap*100)
			}
		}
	}
}

// FuzzCompressRoundTrip pins the compression contract every replay and
// Table 7 estimate rests on: whatever bytes go into a codec come back out
// bit-identical. A silent corruption here would skew compressed byte
// volumes (and therefore every DBMS-X runtime claim) without any test
// noticing.
func FuzzCompressRoundTrip(f *testing.F) {
	f.Add([]byte("quick silent bread knife"), 4, byte(0))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, 4, byte(1))
	f.Add([]byte{0, 0, 0, 0}, 4, byte(2))
	f.Add([]byte{}, 1, byte(1))
	f.Fuzz(func(t *testing.T, data []byte, valueSize int, codecSel byte) {
		var codec compress.Codec
		switch codecSel % 3 {
		case 0:
			codec = compress.FlateCodec{}
		case 1:
			codec = compress.DictCodec{}
		case 2:
			// Delta only accepts 4-byte values; steer instead of skipping so
			// the codec still sees arbitrary payloads.
			codec = compress.DeltaCodec{}
			valueSize = 4
		}
		if valueSize < 1 {
			valueSize = 1
		}
		if valueSize > 64 {
			valueSize = valueSize%64 + 1
		}
		data = data[:len(data)-len(data)%valueSize]
		comp, err := codec.Compress(data, valueSize)
		if err != nil {
			t.Fatalf("%s: compress rejected %d bytes of %d-byte values: %v",
				codec.Name(), len(data), valueSize, err)
		}
		back, err := codec.Decompress(comp, valueSize, len(data))
		if err != nil {
			t.Fatalf("%s: decompress: %v", codec.Name(), err)
		}
		if !bytes.Equal(back, data) {
			t.Errorf("%s: round trip of %d bytes not bit-identical", codec.Name(), len(data))
		}
	})
}
