// Package cost implements the paper's unified I/O cost model (Section 4)
// and the HYRISE-style main-memory cost model used in its Table 6 — both as
// instances of one device-parameterized layer (see device.go).
//
// Every model estimates the cost of answering a scan/projection query over
// a vertically partitioned table: the database reads, in full, every column
// group that contains at least one referenced attribute. Block-priced
// devices (HDD, SSD) charge seek and scan time against a shared I/O buffer;
// cache-priced devices (MM) charge cache misses.
package cost

import (
	"fmt"
	"math"
	"math/bits"

	"knives/internal/attrset"
	"knives/internal/schema"
)

// Disk is the historical name for Device from when the package knew only
// the paper's two hardware points. It survives as an alias so every layer
// that stores "the disk the engine simulates" keeps compiling; new code
// should say Device.
type Disk = Device

// DefaultDisk returns the paper's default disk characteristics — the HDD
// preset.
func DefaultDisk() Disk { return HDDDevice() }

// WithBuffer returns a copy of d with a different buffer size.
func (d Device) WithBuffer(bytes int64) Device { d.BufferSize = bytes; return d }

// WithBlockSize returns a copy of d with a different block size.
func (d Device) WithBlockSize(bytes int64) Device { d.BlockSize = bytes; return d }

// WithReadBandwidth returns a copy of d with a different read bandwidth.
func (d Device) WithReadBandwidth(bytesPerSec float64) Device {
	d.ReadBandwidth = bytesPerSec
	return d
}

// WithSeekTime returns a copy of d with a different seek time.
func (d Device) WithSeekTime(seconds float64) Device { d.SeekTime = seconds; return d }

// Model estimates query costs over a partitioned table. Parts must be a
// complete, disjoint partitioning of the table's attributes; query is the
// set of attributes the query references. The returned unit is seconds —
// the paper only ever compares costs under one model at a time.
type Model interface {
	// Name identifies the model in reports ("HDD", "SSD", "MM").
	Name() string
	// QueryCost returns the cost of one execution of a query referencing
	// the given attributes.
	QueryCost(t *schema.Table, parts []attrset.Set, query attrset.Set) float64
}

// WorkloadCost sums the weighted query costs of a per-table workload.
//
// The weighted product is rounded in its own statement before the running
// sum so no architecture fuses multiply and add: incremental searches cache
// exactly these per-query values and must reproduce this sum bit for bit.
func WorkloadCost(m Model, tw schema.TableWorkload, parts []attrset.Set) float64 {
	var total float64
	for _, q := range tw.Queries {
		wq := q.Weight * m.QueryCost(tw.Table, parts, q.Attrs)
		total += wq
	}
	return total
}

// DeviceModel prices queries on one Device. Block-priced devices follow the
// paper's disk formulas; for a query referencing partitions P_Q with row
// sizes s_i (total S):
//
//	buff_i       = floor(Buff * s_i / S)        (proportional buffer split)
//	blocksBuff_i = floor(buff_i / b)            (clamped to >= 1)
//	blocks_i     = ceil(N / floor(b / s_i))     (blocks of partition i on disk)
//	seek_i       = ts * ceil(blocks_i / blocksBuff_i)
//	scan_i       = blocks_i * b / BW
//	cost(Q)      = sum over i in P_Q of seek_i + scan_i
//
// The blocksBuff clamp covers buffers smaller than one block: the system
// then degrades to one seek per block instead of dividing by zero. Rows
// wider than a block (possible only for pathological block sizes) are laid
// out contiguously: blocks_i = ceil(N * s_i / b).
//
// Cache-priced devices charge each referenced partition its sequential
// stream of cache lines times the miss latency:
//
//	cost(Q) = sum over i in P_Q of ceil(N * s_i / L) * miss
//
// Both disciplines keep each per-partition term in its own statement and
// sum in the parts' order, which is what lets the storage engine's measured
// accounting equal these formulas bit for bit.
type DeviceModel struct {
	dev Device
}

// NewDeviceModel returns a model over a validated device spec.
func NewDeviceModel(dev Device) (*DeviceModel, error) {
	if err := dev.Validate(); err != nil {
		return nil, err
	}
	if dev.Name == "" {
		dev.Name = "custom"
	}
	return &DeviceModel{dev: dev}, nil
}

// NewHDD returns a block-priced model over the given device parameters,
// labeled HDD — the paper's unified disk I/O model. Unset cache parameters
// default so the engine's line accounting always has a granularity.
func NewHDD(d Disk) *DeviceModel {
	d.Name, d.Pricing = "HDD", PricingBlock
	if d.CacheLineSize == 0 {
		d.CacheLineSize = DefaultCacheLineSize
	}
	if d.MissLatency == 0 {
		d.MissLatency = DefaultMissLatency
	}
	return &DeviceModel{dev: d}
}

// NewSSD returns the flash instance of the block discipline: the SSD
// preset's near-zero seek and high read bandwidth.
func NewSSD() *DeviceModel { return &DeviceModel{dev: SSDDevice()} }

// NewMM returns the main-memory model with 64-byte cache lines and a
// 100 ns miss latency, a conventional DRAM figure.
func NewMM() *DeviceModel { return &DeviceModel{dev: MMDevice()} }

// ModelByName returns the named cost model, case-insensitively — the one
// mapping every surface that accepts a model name (knives CLI, knivesd
// flags and wire requests) resolves through. The name picks a device preset
// (see DeviceByName for the alias table); every non-zero hardware parameter
// of d overrides the preset's, and the resolved device is validated, so a
// degenerate buffer or block size fails loudly instead of silently pricing
// garbage.
func ModelByName(name string, d Disk) (Model, error) {
	dev, err := DeviceByName(name)
	if err != nil {
		return nil, err
	}
	return NewDeviceModel(dev.WithOverrides(d))
}

// Device returns the device the model prices.
func (m *DeviceModel) Device() Device { return m.dev }

// Name implements Model.
func (m *DeviceModel) Name() string { return m.dev.Name }

// QueryCost implements Model.
func (m *DeviceModel) QueryCost(t *schema.Table, parts []attrset.Set, query attrset.Set) float64 {
	var totalRowSize int64
	for _, p := range parts {
		if p.Overlaps(query) {
			totalRowSize += t.SetSize(p)
		}
	}
	if totalRowSize == 0 {
		return 0
	}
	var cost float64
	for _, p := range parts {
		if !p.Overlaps(query) {
			continue
		}
		cost += m.PartitionCost(t, t.SetSize(p), totalRowSize)
	}
	return cost
}

// PartitionCoster is an optional fast path implemented by models whose
// query cost decomposes into a sum over referenced partitions that depends
// only on each partition's row size and the combined row size of all
// referenced partitions: QueryCost must equal these terms summed in the
// parts' order, as DeviceModel's does. Every cost-based search prices
// candidates through it without materializing attribute sets — BruteForce's
// walk and the bottom-up merge loop of HillClimb, AutoPart and HYRISE, both
// through a PartitionCostMemo — and falls back to QueryCost for models that
// do not implement it.
type PartitionCoster interface {
	// PartitionCost prices reading one partition of row size rowSize when
	// the query's referenced partitions have combined row size
	// totalRowSize.
	PartitionCost(t *schema.Table, rowSize, totalRowSize int64) float64
}

// PartitionCost implements PartitionCoster.
func (m *DeviceModel) PartitionCost(t *schema.Table, rowSize, totalRowSize int64) float64 {
	d := &m.dev
	if d.Pricing == PricingCache {
		line := d.CacheLineSize
		if line <= 0 {
			line = DefaultCacheLineSize
		}
		bytes := float64(t.Rows) * float64(rowSize)
		return math.Ceil(bytes/float64(line)) * d.MissLatency
	}
	blocks := PartitionBlocks(t.Rows, rowSize, d.BlockSize)

	blocksBuff := bufferShare(d.BufferSize, rowSize, totalRowSize) / d.BlockSize
	if blocksBuff < 1 {
		blocksBuff = 1
	}

	seeks := ceilDiv(blocks, blocksBuff)
	seekCost := d.SeekTime * float64(seeks)
	scanCost := float64(blocks) * float64(d.BlockSize) / d.ReadBandwidth
	return seekCost + scanCost
}

// PartitionSeeks returns the buffer refills the block-pricing formulas
// imply for reading one partition of row size rowSize in full, when the
// query's referenced partitions have combined row size totalRowSize:
// ceil(blocks / blocksBuff) under the proportional buffer split. This is
// the seek count inside PartitionCost, exported standalone so the replay
// subsystem predicts integer seeks from the same arithmetic the model
// prices them with; TestPartitionCostDecomposes pins the two in lockstep.
// (PartitionCost keeps its own inlined copy: it is the kernel's hottest
// function and must not compute PartitionBlocks twice.)
func PartitionSeeks(rows, rowSize, totalRowSize int64, d Disk) int64 {
	if rowSize <= 0 || totalRowSize <= 0 {
		return 0
	}
	blocks := PartitionBlocks(rows, rowSize, d.BlockSize)
	blocksBuff := bufferShare(d.BufferSize, rowSize, totalRowSize) / d.BlockSize
	if blocksBuff < 1 {
		blocksBuff = 1
	}
	return ceilDiv(blocks, blocksBuff)
}

// bufferShare returns floor(buffer * rowSize / totalRowSize), a partition's
// share of the I/O buffer under the proportional split, with the product
// taken in 128 bits. In int64 it overflows once buffer * rowSize passes
// 2^63 — a 2^62-byte buffer and a 100-byte row wrap to a tiny share, and a
// bigger buffer prices worse than a smaller one. Wherever the product fits
// in int64 the result is the int64 expression's; a quotient past int64
// saturates (only a rowSize above totalRowSize, which no query prices, can
// get there).
func bufferShare(buffer, rowSize, totalRowSize int64) int64 {
	hi, lo := bits.Mul64(uint64(buffer), uint64(rowSize))
	if hi|lo>>63 != 0 && buffer|rowSize >= 0 {
		return wideBufferShare(hi, lo, totalRowSize)
	}
	return int64(lo) / totalRowSize // the int64 product, wrapped or not
}

// wideBufferShare divides a 128-bit buffer * rowSize by totalRowSize.
func wideBufferShare(hi, lo uint64, totalRowSize int64) int64 {
	if hi >= uint64(totalRowSize) {
		return math.MaxInt64
	}
	q, _ := bits.Div64(hi, lo, uint64(totalRowSize))
	return int64(min(q, math.MaxInt64))
}

// PartitionBlocks returns the number of disk blocks a partition with the
// given row size occupies: rows are packed whole into blocks when they fit,
// otherwise stored contiguously.
func PartitionBlocks(rows, rowSize, blockSize int64) int64 {
	if rows == 0 || rowSize == 0 {
		return 0
	}
	rowsPerBlock := blockSize / rowSize
	if rowsPerBlock >= 1 {
		return ceilDiv(rows, rowsPerBlock)
	}
	return ceilDiv(rows*rowSize, blockSize)
}

func ceilDiv(a, b int64) int64 {
	if b <= 0 {
		panic(fmt.Sprintf("cost: ceilDiv by %d", b))
	}
	return (a + b - 1) / b
}

// ScanBytes returns the number of bytes a query reads from disk under the
// common-granularity rule (all blocks of every referenced partition). The
// metrics package uses this for the unnecessary-data-read figure.
func ScanBytes(t *schema.Table, parts []attrset.Set, query attrset.Set, blockSize int64) int64 {
	var total int64
	for _, p := range parts {
		if p.Overlaps(query) {
			total += PartitionBlocks(t.Rows, t.SetSize(p), blockSize) * blockSize
		}
	}
	return total
}

// CreationTime estimates the time to transform a table from row layout into
// the given number of partition files: the table is read once at the read
// bandwidth and written once at the write bandwidth (Section 6.1 reports
// ~420 s for all of TPC-H SF 10).
func CreationTime(t *schema.Table, d Disk) float64 {
	bytes := float64(t.Bytes())
	w := d.WriteBandwidth
	if w <= 0 {
		w = d.ReadBandwidth
	}
	return bytes/d.ReadBandwidth + bytes/w
}

// BenchmarkCreationTime sums CreationTime over all tables of a benchmark.
func BenchmarkCreationTime(b *schema.Benchmark, d Disk) float64 {
	var total float64
	for _, t := range b.Tables {
		total += CreationTime(t, d)
	}
	return total
}
