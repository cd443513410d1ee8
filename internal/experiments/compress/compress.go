// Package compress holds the column codecs and the compressed-scan estimate
// behind Table 7, the one experiment that stands in for the paper's
// commercial column store DBMS-X. Nothing on the scan path uses it.
package compress

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"
	"sort"

	"knives/internal/attrset"
	"knives/internal/cost"
	"knives/internal/schema"
	"knives/internal/storage"
)

// Codec compresses a column's values (concatenated fixed-width encoding).
// The Table 7 experiment uses codecs to estimate how a column store's
// compression changes the byte volumes the cost model prices.
type Codec interface {
	Name() string
	// Compress returns the compressed form of data, where data is n
	// concatenated values of width valueSize.
	Compress(data []byte, valueSize int) ([]byte, error)
	// Decompress inverts Compress given the original length.
	Decompress(data []byte, valueSize, originalLen int) ([]byte, error)
	// FixedWidth reports whether decoded values keep a fixed width, which
	// decides the tuple-reconstruction CPU penalty inside column groups.
	FixedWidth() bool
}

// FlateCodec is an LZ-family codec standing in for DBMS-X's default LZO
// compression of strings and floats. Variable-length output makes intra-
// group tuple reconstruction expensive, which is the mechanism the paper
// blames for the column-vs-HillClimb gap under default compression.
type FlateCodec struct{}

// Name implements Codec.
func (FlateCodec) Name() string { return "flate" }

// FixedWidth implements Codec.
func (FlateCodec) FixedWidth() bool { return false }

// Compress implements Codec.
func (FlateCodec) Compress(data []byte, _ int) ([]byte, error) {
	var buf bytes.Buffer
	w, err := flate.NewWriter(&buf, flate.DefaultCompression)
	if err != nil {
		return nil, fmt.Errorf("compress: flate writer: %w", err)
	}
	if _, err := w.Write(data); err != nil {
		return nil, fmt.Errorf("compress: flate write: %w", err)
	}
	if err := w.Close(); err != nil {
		return nil, fmt.Errorf("compress: flate close: %w", err)
	}
	return buf.Bytes(), nil
}

// Decompress implements Codec.
func (FlateCodec) Decompress(data []byte, _, originalLen int) ([]byte, error) {
	r := flate.NewReader(bytes.NewReader(data))
	defer r.Close()
	out := make([]byte, 0, originalLen)
	buf := make([]byte, 32*1024)
	for {
		n, err := r.Read(buf)
		out = append(out, buf[:n]...)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("compress: flate read: %w", err)
		}
	}
	return out, nil
}

// DeltaCodec delta-encodes 4-byte little-endian integers with varint
// residuals, standing in for DBMS-X's default delta encoding of integer
// and date columns. Output is variable-length.
type DeltaCodec struct{}

// Name implements Codec.
func (DeltaCodec) Name() string { return "delta" }

// FixedWidth implements Codec.
func (DeltaCodec) FixedWidth() bool { return false }

// Compress implements Codec.
func (DeltaCodec) Compress(data []byte, valueSize int) ([]byte, error) {
	if valueSize != 4 {
		return nil, fmt.Errorf("compress: delta codec needs 4-byte values, got %d", valueSize)
	}
	if len(data)%4 != 0 {
		return nil, fmt.Errorf("compress: delta codec input not a multiple of 4")
	}
	out := make([]byte, 0, len(data)/2)
	var prev int64
	tmp := make([]byte, binary.MaxVarintLen64)
	for i := 0; i < len(data); i += 4 {
		v := int64(binary.LittleEndian.Uint32(data[i:]))
		n := binary.PutVarint(tmp, v-prev)
		out = append(out, tmp[:n]...)
		prev = v
	}
	return out, nil
}

// Decompress implements Codec.
func (DeltaCodec) Decompress(data []byte, valueSize, originalLen int) ([]byte, error) {
	if valueSize != 4 {
		return nil, fmt.Errorf("compress: delta codec needs 4-byte values, got %d", valueSize)
	}
	out := make([]byte, 0, originalLen)
	var prev int64
	for pos := 0; pos < len(data); {
		d, n := binary.Varint(data[pos:])
		if n <= 0 {
			return nil, fmt.Errorf("compress: corrupt delta stream at %d", pos)
		}
		pos += n
		prev += d
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], uint32(prev))
		out = append(out, b[:]...)
	}
	if len(out) != originalLen {
		return nil, fmt.Errorf("compress: delta decompressed %d bytes, want %d", len(out), originalLen)
	}
	return out, nil
}

// DictCodec dictionary-encodes values into fixed-width codes, standing in
// for DBMS-X's dictionary compression. Fixed-size codes keep tuple
// reconstruction within column groups cheap (the paper's second Table 7
// configuration).
type DictCodec struct{}

// Name implements Codec.
func (DictCodec) Name() string { return "dict" }

// FixedWidth implements Codec.
func (DictCodec) FixedWidth() bool { return true }

// codeWidth returns the byte width needed for n distinct values.
func codeWidth(n int) int {
	switch {
	case n <= 1<<8:
		return 1
	case n <= 1<<16:
		return 2
	default:
		return 4
	}
}

// Compress implements Codec. Layout: [numEntries uint32][entries...][codes...].
func (DictCodec) Compress(data []byte, valueSize int) ([]byte, error) {
	if valueSize <= 0 || len(data)%valueSize != 0 {
		return nil, fmt.Errorf("compress: dict codec: %d bytes not divisible by value size %d", len(data), valueSize)
	}
	n := len(data) / valueSize
	index := make(map[string]int)
	var entries []string
	codes := make([]int, n)
	for i := 0; i < n; i++ {
		v := string(data[i*valueSize : (i+1)*valueSize])
		id, ok := index[v]
		if !ok {
			id = len(entries)
			index[v] = id
			entries = append(entries, v)
		}
		codes[i] = id
	}
	// Re-number entries in sorted order for deterministic output.
	sorted := append([]string(nil), entries...)
	sort.Strings(sorted)
	rank := make(map[string]int, len(sorted))
	for i, v := range sorted {
		rank[v] = i
	}
	w := codeWidth(len(sorted))
	out := make([]byte, 0, 4+len(sorted)*valueSize+n*w)
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(sorted)))
	out = append(out, hdr[:]...)
	for _, v := range sorted {
		out = append(out, v...)
	}
	var tmp [4]byte
	for i := 0; i < n; i++ {
		code := rank[entries[codes[i]]]
		binary.LittleEndian.PutUint32(tmp[:], uint32(code))
		out = append(out, tmp[:w]...)
	}
	return out, nil
}

// Decompress implements Codec.
func (DictCodec) Decompress(data []byte, valueSize, originalLen int) ([]byte, error) {
	if len(data) < 4 {
		return nil, fmt.Errorf("compress: dict stream too short")
	}
	nEntries := int(binary.LittleEndian.Uint32(data))
	pos := 4
	if len(data) < pos+nEntries*valueSize {
		return nil, fmt.Errorf("compress: dict stream truncated in dictionary")
	}
	dict := make([][]byte, nEntries)
	for i := range dict {
		dict[i] = data[pos : pos+valueSize]
		pos += valueSize
	}
	w := codeWidth(nEntries)
	out := make([]byte, 0, originalLen)
	var tmp [4]byte
	for ; pos+w <= len(data); pos += w {
		copy(tmp[:], []byte{0, 0, 0, 0})
		copy(tmp[:w], data[pos:pos+w])
		code := int(binary.LittleEndian.Uint32(tmp[:]))
		if code >= nEntries {
			return nil, fmt.Errorf("compress: dict code %d out of range", code)
		}
		out = append(out, dict[code]...)
	}
	if len(out) != originalLen {
		return nil, fmt.Errorf("compress: dict decompressed %d bytes, want %d", len(out), originalLen)
	}
	return out, nil
}

// CompressionScheme selects per-column codecs like DBMS-X's two Table 7
// configurations.
type CompressionScheme int

const (
	// SchemeDefault mirrors DBMS-X defaults: delta encoding for integers
	// and dates, LZ (flate) for strings and decimals. Variable-length.
	SchemeDefault CompressionScheme = iota
	// SchemeDictionary forces fixed-width dictionary encoding everywhere.
	SchemeDictionary
)

func (s CompressionScheme) String() string {
	if s == SchemeDictionary {
		return "Dictionary"
	}
	return "Default (LZ or Delta)"
}

// codecFor returns the codec the scheme assigns to a column.
func (s CompressionScheme) codecFor(col schema.Column) Codec {
	if s == SchemeDictionary {
		return DictCodec{}
	}
	switch col.Kind {
	case schema.KindInt, schema.KindDate:
		return DeltaCodec{}
	default:
		return FlateCodec{}
	}
}

// CompressionRatios measures, on a generated sample of the table, the
// compressed-bytes-per-value of every column under the scheme. Ratios are
// in (0, 1+ε] relative to the uncompressed width.
func CompressionRatios(t *schema.Table, gen *storage.Generator, sampleRows int64, scheme CompressionScheme) (map[string]float64, error) {
	if sampleRows <= 0 {
		return nil, fmt.Errorf("compress: sampleRows must be positive")
	}
	if sampleRows > t.Rows && t.Rows > 0 {
		sampleRows = t.Rows
	}
	ratios := make(map[string]float64, len(t.Columns))
	for _, col := range t.Columns {
		raw := make([]byte, int(sampleRows)*col.Size)
		for r := int64(0); r < sampleRows; r++ {
			gen.Value(col, r, raw[int(r)*col.Size:int(r+1)*col.Size])
		}
		codec := scheme.codecFor(col)
		comp, err := codec.Compress(raw, col.Size)
		if err != nil {
			return nil, fmt.Errorf("compress: compress %s.%s: %w", t.Name, col.Name, err)
		}
		ratios[col.Name] = float64(len(comp)) / float64(len(raw))
	}
	return ratios, nil
}

// CompressedScanSeconds estimates the workload runtime of a layout under a
// compression scheme: I/O time on the compressed byte volumes via the HDD
// cost formulas, plus a per-tuple CPU charge for reconstructing tuples out
// of variable-length-encoded multi-column partitions (the paper's Table 7
// explanation for why HillClimb trails Column under default compression).
func CompressedScanSeconds(
	tw schema.TableWorkload, parts []attrset.Set, disk cost.Disk,
	ratios map[string]float64, scheme CompressionScheme,
	varLenJoinCPU float64,
) float64 {
	t := tw.Table
	hdd := cost.NewHDD(disk)
	var total float64
	for _, q := range tw.Queries {
		// Compressed row size per referenced partition.
		var S int64
		var refs []attrset.Set
		var compSizes []int64
		for _, p := range parts {
			if !p.Overlaps(q.Attrs) {
				continue
			}
			var csize float64
			p.ForEach(func(a int) {
				col := t.Columns[a]
				csize += float64(col.Size) * ratios[col.Name]
			})
			cs := int64(csize)
			if cs < 1 {
				cs = 1
			}
			refs = append(refs, p)
			compSizes = append(compSizes, cs)
			S += cs
		}
		if S == 0 {
			continue
		}
		var qc float64
		for i, p := range refs {
			qc += hdd.PartitionCost(t, compSizes[i], S)
			// CPU penalty: stitching a tuple out of a variable-length
			// encoded multi-column partition costs per column boundary.
			if scheme == SchemeDefault && p.Len() > 1 {
				qc += varLenJoinCPU * float64(t.Rows) * float64(p.Len()-1)
			}
		}
		total += q.Weight * qc
	}
	return total
}
