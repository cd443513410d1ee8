package cost

import (
	"fmt"
	"sort"
	"strings"
)

// The device layer: the paper's central result is that the best vertical
// partitioning depends on the hardware cost model (its HDD vs main-memory
// comparison), and this file turns that two-point comparison into a
// parameterized spectrum. A Device is the full hardware spec a cost model
// prices against; HDD, SSD, and MM are presets of it, and every surface
// that accepts a model name (CLIs, the knivesd wire format, replay and
// migration configs) resolves through the one table below.

// Pricing selects the discipline a Device's query cost follows.
type Pricing int

const (
	// PricingBlock charges seek plus scan time for reading whole disk
	// blocks through an I/O buffer shared proportionally across the
	// referenced partitions — the paper's unified model (Section 4). HDD
	// and SSD devices price this way; they differ only in constants.
	PricingBlock Pricing = iota
	// PricingCache charges cache-line transfers times the miss latency —
	// the HYRISE-style main-memory model of the paper's Table 6. There is
	// no seek component, which is why column grouping cannot beat a pure
	// column layout under it.
	PricingCache
)

// String names the pricing discipline.
func (p Pricing) String() string {
	if p == PricingCache {
		return "cache"
	}
	return "block"
}

// Device is the hardware/software setting a cost model prices against: the
// block geometry and buffer the storage engine materializes with, the
// mechanical constants (seek, bandwidths) the block discipline charges, and
// the cache parameters the cache discipline charges. The zero value is not
// usable; start from a preset (HDDDevice, SSDDevice, MMDevice) or validate
// an explicit spec with NewDeviceModel.
type Device struct {
	// Name identifies the device in reports ("HDD", "SSD", "MM").
	Name string
	// Pricing is the discipline queries are priced with.
	Pricing Pricing

	BlockSize      int64   // b, bytes
	BufferSize     int64   // Buff, bytes
	ReadBandwidth  float64 // BW, bytes/second
	WriteBandwidth float64 // bytes/second, for writes; 0 falls back to reads
	SeekTime       float64 // ts, seconds per buffer refill

	// CacheLineSize and MissLatency parameterize the cache discipline (and
	// the engine's cache-line accounting, which runs under every pricing).
	CacheLineSize int64   // bytes
	MissLatency   float64 // seconds per cache miss
}

// DefaultCacheLineSize is the conventional 64-byte cache line every preset
// uses.
const DefaultCacheLineSize = 64

// DefaultMissLatency is the conventional DRAM miss cost every preset uses.
const DefaultMissLatency = 100e-9

// HDDDevice returns the paper's testbed disk as measured with Bonnie++
// (Section 4, "Common Hardware") plus its default experiment parameters
// (Section 6.3): 8 KB blocks, 8 MB buffer, 90 MB/s read, 4.84 ms seek.
func HDDDevice() Device {
	return Device{
		Name:           "HDD",
		Pricing:        PricingBlock,
		BlockSize:      8 * 1024,
		BufferSize:     8 * 1024 * 1024,
		ReadBandwidth:  90.07 * 1e6,
		WriteBandwidth: 64.37 * 1e6,
		SeekTime:       4.84e-3,
		CacheLineSize:  DefaultCacheLineSize,
		MissLatency:    DefaultMissLatency,
	}
}

// SSDDevice returns a flash device in the same block discipline as the
// paper's disk but with the constants that make flash interesting for the
// comparison: near-zero seek (no head to move — 0.1 ms covers the flash
// translation layer) and several times the sequential read bandwidth
// (SATA-era figures, the hardware generation of the paper). Everything else
// — block geometry, buffer, cache line — matches the paper's testbed, so
// an HDD-vs-SSD ranking difference is attributable to the seek/bandwidth
// constants alone.
func SSDDevice() Device {
	return Device{
		Name:           "SSD",
		Pricing:        PricingBlock,
		BlockSize:      8 * 1024,
		BufferSize:     8 * 1024 * 1024,
		ReadBandwidth:  500 * 1e6,
		WriteBandwidth: 450 * 1e6,
		SeekTime:       0.1e-3,
		CacheLineSize:  DefaultCacheLineSize,
		MissLatency:    DefaultMissLatency,
	}
}

// MMDevice returns the main-memory device of the paper's Table 6: 64-byte
// cache lines at a 100 ns miss latency, priced with the cache discipline.
// It keeps the paper's block geometry so the storage engine can still
// materialize pages and count seeks/bytes for it (mechanics the cache
// pricing ignores); the bandwidth is a conventional DDR3 figure and the
// seek time is zero.
func MMDevice() Device {
	return Device{
		Name:          "MM",
		Pricing:       PricingCache,
		BlockSize:     8 * 1024,
		BufferSize:    8 * 1024 * 1024,
		ReadBandwidth: 12.8 * 1e9,
		SeekTime:      0,
		CacheLineSize: DefaultCacheLineSize,
		MissLatency:   DefaultMissLatency,
	}
}

// devicePresets is the one name table every surface resolves device/model
// names through — CLIs, the knivesd wire format, and the façade share it,
// so a name cannot mean different hardware on different paths.
var devicePresets = map[string]func() Device{
	"hdd":    HDDDevice,
	"disk":   HDDDevice,
	"ssd":    SSDDevice,
	"flash":  SSDDevice,
	"mm":     MMDevice,
	"mem":    MMDevice,
	"memory": MMDevice,
	"ram":    MMDevice,
}

// DeviceNames returns every accepted device/model name (canonical names and
// aliases), sorted — the list unknown-name errors print.
func DeviceNames() []string {
	names := make([]string, 0, len(devicePresets))
	for n := range devicePresets {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// DeviceByName returns the named device preset, case-insensitively. The
// unknown-name error lists every valid name and alias.
func DeviceByName(name string) (Device, error) {
	preset, ok := devicePresets[strings.ToLower(name)]
	if !ok {
		return Device{}, fmt.Errorf("cost: unknown device/model %q (valid: %s)",
			name, strings.Join(DeviceNames(), ", "))
	}
	return preset(), nil
}

// WithOverrides returns d with every non-zero hardware parameter of o
// applied over it. Name and Pricing are the device's identity, not
// parameters, and always stay d's — overlaying a full HDD spec onto the
// SSD preset changes the SSD's constants, never what it is priced as.
func (d Device) WithOverrides(o Device) Device {
	if o.BlockSize != 0 {
		d.BlockSize = o.BlockSize
	}
	if o.BufferSize != 0 {
		d.BufferSize = o.BufferSize
	}
	if o.ReadBandwidth != 0 {
		d.ReadBandwidth = o.ReadBandwidth
	}
	if o.WriteBandwidth != 0 {
		d.WriteBandwidth = o.WriteBandwidth
	}
	if o.SeekTime != 0 {
		d.SeekTime = o.SeekTime
	}
	if o.CacheLineSize != 0 {
		d.CacheLineSize = o.CacheLineSize
	}
	if o.MissLatency != 0 {
		d.MissLatency = o.MissLatency
	}
	return d
}

// The admitted device domain. A table is at most schema.MaxTableBytes of
// rows at most schema.MaxRowWidth wide, so one partition of it spans at
// most 2^60 blocks and seeks, and a query's partitions hold fewer than
// 2^61 + 64·b bytes of blocks. Within these bounds a query therefore
// prices below 2^66·MaxSeekTime + 2^62/MinBandwidth on a block device and
// below (2^60 + 64)·MaxMissLatency on a cache device, and every byte count
// fits an int64. A weighted workload multiplies that by less than 2^76
// (the advisor's weight ceiling times the queries a request can carry)
// and stays finite. From below, a query that reads anything reads at least
// one block of at least one byte, or misses at least one line, so it prices
// at least 2^-60 s: one byte at MaxBandwidth, or one miss at MinMissLatency
// (a zero miss latency prices every query of a cache device 0). Times the
// advisor's weight floor that stays a normal float.
const (
	MaxBlockSize   = 1 << 24 // bytes
	MinBandwidth   = 1       // bytes/second, reads and writes
	MaxBandwidth   = 1 << 60 // bytes/second, reads and writes
	MaxSeekTime    = 3600    // seconds per buffer refill
	MinMissLatency = 0x1p-60 // seconds per cache miss, unless misses are free (0)
	MaxMissLatency = 1       // seconds per cache miss
)

// Validate reports whether the device parameters are usable: inside the
// admitted domain above, so every price of an admitted table is finite.
// NaN fails the negated comparisons, so a corrupted override can never
// price garbage silently.
func (d Device) Validate() error {
	switch {
	case d.BlockSize <= 0 || d.BlockSize > MaxBlockSize:
		return fmt.Errorf("cost: block size %d must be in [1, %d]", d.BlockSize, MaxBlockSize)
	case d.BufferSize <= 0:
		return fmt.Errorf("cost: buffer size %d must be positive", d.BufferSize)
	case !(d.ReadBandwidth >= MinBandwidth && d.ReadBandwidth <= MaxBandwidth):
		return fmt.Errorf("cost: read bandwidth %v must be in [%d, 2^60] B/s", d.ReadBandwidth, MinBandwidth)
	case d.WriteBandwidth != 0 && !(d.WriteBandwidth >= MinBandwidth && d.WriteBandwidth <= MaxBandwidth):
		return fmt.Errorf("cost: write bandwidth %v must be in [%d, 2^60] B/s (or 0 to reuse reads)", d.WriteBandwidth, MinBandwidth)
	case !(d.SeekTime >= 0 && d.SeekTime <= MaxSeekTime):
		return fmt.Errorf("cost: seek time %v must be in [0, %d] s", d.SeekTime, MaxSeekTime)
	case d.CacheLineSize < 0:
		return fmt.Errorf("cost: cache line size %d must be non-negative", d.CacheLineSize)
	case d.MissLatency != 0 && !(d.MissLatency >= MinMissLatency && d.MissLatency <= MaxMissLatency):
		return fmt.Errorf("cost: miss latency %v must be 0 or in [2^-60, %d] s", d.MissLatency, MaxMissLatency)
	}
	return nil
}

// Key canonically identifies the device for cache keying: two models whose
// devices share a key price every workload bit-identically, because the
// pricing arithmetic reads exactly the fields printed here.
func (d Device) Key() string {
	return fmt.Sprintf("%s/%s b=%d buf=%d r=%b w=%b s=%b l=%d m=%b",
		d.Name, d.Pricing, d.BlockSize, d.BufferSize,
		d.ReadBandwidth, d.WriteBandwidth, d.SeekTime, d.CacheLineSize, d.MissLatency)
}
