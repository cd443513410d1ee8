package cost

import (
	"math"
	"strings"
	"testing"

	"knives/internal/attrset"
	"knives/internal/schema"
)

func TestDevicePresets(t *testing.T) {
	hdd, ssd, mm := HDDDevice(), SSDDevice(), MMDevice()
	for _, d := range []Device{hdd, ssd, mm} {
		if err := d.Validate(); err != nil {
			t.Errorf("preset %s invalid: %v", d.Name, err)
		}
	}
	if hdd.Pricing != PricingBlock || ssd.Pricing != PricingBlock || mm.Pricing != PricingCache {
		t.Error("preset pricing disciplines wrong")
	}
	// The SSD is the point between the paper's endpoints: same block
	// discipline and geometry as the HDD, radically cheaper mechanics.
	if ssd.SeekTime >= hdd.SeekTime/10 {
		t.Errorf("SSD seek %v not near-zero vs HDD %v", ssd.SeekTime, hdd.SeekTime)
	}
	if ssd.ReadBandwidth <= hdd.ReadBandwidth {
		t.Errorf("SSD read bandwidth %v not above HDD %v", ssd.ReadBandwidth, hdd.ReadBandwidth)
	}
	if ssd.BlockSize != hdd.BlockSize || ssd.BufferSize != hdd.BufferSize {
		t.Error("SSD geometry differs from HDD: a ranking difference would not be attributable to mechanics")
	}
	if DefaultDisk() != hdd {
		t.Error("DefaultDisk is not the HDD preset")
	}
}

// The one name table: every surface resolves model/device names through it,
// case-insensitively, with aliases — and the unknown-name error lists every
// valid name.
func TestModelByNameAliases(t *testing.T) {
	cases := []struct {
		name    string
		device  string
		pricing Pricing
	}{
		{"hdd", "HDD", PricingBlock},
		{"HDD", "HDD", PricingBlock},
		{"Disk", "HDD", PricingBlock},
		{"ssd", "SSD", PricingBlock},
		{"SSD", "SSD", PricingBlock},
		{"Flash", "SSD", PricingBlock},
		{"mm", "MM", PricingCache},
		{"MM", "MM", PricingCache},
		{"Mem", "MM", PricingCache},
		{"MEMORY", "MM", PricingCache},
		{"ram", "MM", PricingCache},
	}
	for _, tc := range cases {
		m, err := ModelByName(tc.name, Device{})
		if err != nil {
			t.Errorf("ModelByName(%q): %v", tc.name, err)
			continue
		}
		dm := m.(*DeviceModel)
		if dm.Name() != tc.device || dm.Device().Pricing != tc.pricing {
			t.Errorf("ModelByName(%q) = %s/%v, want %s/%v",
				tc.name, dm.Name(), dm.Device().Pricing, tc.device, tc.pricing)
		}
		// The façade and every CLI resolve through DeviceByName too; the
		// two must agree name for name.
		dev, err := DeviceByName(tc.name)
		if err != nil || dev.Name != tc.device {
			t.Errorf("DeviceByName(%q) = %v, %v; want %s", tc.name, dev.Name, err, tc.device)
		}
	}
	_, err := ModelByName("tape", Device{})
	if err == nil {
		t.Fatal("accepted unknown device name")
	}
	for _, want := range DeviceNames() {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("unknown-name error %q does not list %q", err, want)
		}
	}
}

func TestModelByNameOverrides(t *testing.T) {
	// Non-zero override fields replace preset values; zeros keep them.
	m, err := ModelByName("ssd", Device{BufferSize: 1 << 20, SeekTime: 2e-3})
	if err != nil {
		t.Fatal(err)
	}
	dev := m.(*DeviceModel).Device()
	if dev.BufferSize != 1<<20 || dev.SeekTime != 2e-3 {
		t.Errorf("overrides not applied: %+v", dev)
	}
	if dev.ReadBandwidth != SSDDevice().ReadBandwidth || dev.Name != "SSD" {
		t.Errorf("unset fields did not keep the preset: %+v", dev)
	}
	// NaN/Inf overrides must fail validation, never price.
	for _, bad := range []Device{
		{ReadBandwidth: math.NaN()},
		{ReadBandwidth: math.Inf(1)},
		{SeekTime: math.NaN()},
		{MissLatency: math.Inf(1)},
		{WriteBandwidth: -1},
		{BlockSize: -8},
	} {
		if _, err := ModelByName("hdd", bad); err == nil {
			t.Errorf("accepted degenerate override %+v", bad)
		}
	}
}

// Validate admits every device up to the domain's bounds and nothing past
// them: a seek, miss latency, bandwidth or block a step over its ceiling, or
// a bandwidth or nonzero miss latency a step under its floor, is an error,
// and so is the first value of each the wire reported priced +Inf.
func TestValidateBoundsTheDomain(t *testing.T) {
	for _, name := range []string{"hdd", "ssd", "mm"} {
		slow := Device{BlockSize: MaxBlockSize, ReadBandwidth: MinBandwidth, WriteBandwidth: MinBandwidth,
			SeekTime: MaxSeekTime, MissLatency: MaxMissLatency, CacheLineSize: 1}
		fast := Device{ReadBandwidth: MaxBandwidth, WriteBandwidth: MaxBandwidth, MissLatency: MinMissLatency}
		for _, edge := range []Device{slow, fast} {
			if _, err := ModelByName(name, edge); err != nil {
				t.Errorf("%s at the bounds: %v", name, err)
			}
		}
		for _, past := range []Device{
			{BlockSize: MaxBlockSize + 1},
			{ReadBandwidth: math.Nextafter(MinBandwidth, 0)},
			{WriteBandwidth: math.Nextafter(MinBandwidth, 0)},
			{ReadBandwidth: math.Nextafter(MaxBandwidth, math.Inf(1))},
			{WriteBandwidth: math.Nextafter(MaxBandwidth, math.Inf(1))},
			{SeekTime: math.Nextafter(MaxSeekTime, math.Inf(1))},
			{MissLatency: math.Nextafter(MaxMissLatency, math.Inf(1))},
			{MissLatency: math.Nextafter(MinMissLatency, 0)},
			{MissLatency: 5e-324},
			{ReadBandwidth: math.MaxFloat64},
			{SeekTime: 1e308},
			{ReadBandwidth: 1e-300},
			{MissLatency: 1e308},
		} {
			if _, err := ModelByName(name, past); err == nil {
				t.Errorf("%s: accepted %+v past the domain", name, past)
			}
		}
	}
}

// The migration pricing must generalize with the device layer: any valid
// block device prices like the HDD discipline, any cache device like MM,
// and an identity transition is exactly zero everywhere.
func TestMigrationCostAnyDevice(t *testing.T) {
	tab := testTable(t, 10_000, 8, 4, 100, 25)
	from := []attrset.Set{attrset.Of(0, 1), attrset.Of(2), attrset.Of(3)}
	to := []attrset.Set{attrset.Of(0), attrset.Of(1, 2), attrset.Of(3)}
	for _, dev := range []Device{HDDDevice(), SSDDevice(), MMDevice()} {
		m, err := NewDeviceModel(dev)
		if err != nil {
			t.Fatal(err)
		}
		mig, err := MigrationCost(m, tab, from, to)
		if err != nil {
			t.Fatalf("%s: %v", dev.Name, err)
		}
		if mig.Model != dev.Name || mig.Pricing != dev.Pricing {
			t.Errorf("%s: migration labeled %s/%v", dev.Name, mig.Model, mig.Pricing)
		}
		if !(mig.Seconds > 0) {
			t.Errorf("%s: non-identity migration priced %v", dev.Name, mig.Seconds)
		}
		id, err := MigrationCost(m, tab, from, from)
		if err != nil {
			t.Fatal(err)
		}
		if id.Seconds != 0 || len(id.Reads) != 0 || len(id.Writes) != 0 {
			t.Errorf("%s: identity migration not exactly zero: %+v", dev.Name, id)
		}
	}
}

// FuzzDeviceCost asserts the device layer's core invariants for ANY valid
// device, not just the presets: WorkloadCost is finite and non-negative,
// and the memoized partition-cost path is bit-identical to the direct one
// (the property every sharded search rests on).
func FuzzDeviceCost(f *testing.F) {
	f.Add(int64(1_000_000), int64(8192), int64(8<<20), 90.07e6, 4.84e-3, int64(64), 100e-9, false, uint64(0b1011))
	f.Add(int64(50_000), int64(8192), int64(8<<20), 500e6, 0.1e-3, int64(64), 100e-9, false, uint64(0b0110))
	f.Add(int64(6_000_000), int64(4096), int64(1<<20), 12.8e9, 0.0, int64(128), 50e-9, true, uint64(0b1111))
	f.Add(int64(1), int64(1), int64(1), 1.0, 0.0, int64(1), 0.0, true, uint64(1))

	f.Fuzz(func(t *testing.T, rows, blockSize, bufferSize int64, readBW, seek float64, line int64, miss float64, cache bool, queryBits uint64) {
		dev := Device{
			BlockSize:     blockSize,
			BufferSize:    bufferSize,
			ReadBandwidth: readBW,
			SeekTime:      seek,
			CacheLineSize: line,
			MissLatency:   miss,
		}
		if cache {
			dev.Pricing = PricingCache
		}
		// Bound the domain to devices Validate accepts and geometry that
		// cannot overflow the integer block arithmetic.
		if dev.Validate() != nil || rows < 0 || rows > 1<<40 ||
			blockSize > 1<<30 || bufferSize > 1<<40 || line > 1<<20 ||
			readBW < 1e-3 || readBW > 1e15 || seek > 1e6 || miss > 1e3 {
			t.Skip()
		}
		m, err := NewDeviceModel(dev)
		if err != nil {
			t.Skip()
		}
		tab := testTable(t, rows, 4, 8, 1, 25, 10, 44)
		parts := []attrset.Set{attrset.Of(0, 1), attrset.Of(2, 3), attrset.Of(4), attrset.Of(5)}
		tw := schema.TableWorkload{Table: tab, Queries: []schema.TableQuery{
			{ID: "q1", Weight: 1, Attrs: attrset.Set(queryBits) & tab.AllAttrs()},
			{ID: "q2", Weight: 2.5, Attrs: attrset.Set(queryBits>>6) & tab.AllAttrs()},
			{ID: "q3", Weight: 0.5, Attrs: tab.AllAttrs()},
		}}
		total := WorkloadCost(m, tw, parts)
		if math.IsNaN(total) || math.IsInf(total, 0) || total < 0 {
			t.Fatalf("WorkloadCost = %v for device %+v", total, dev)
		}
		// Memo == direct, bitwise, for this device's PartitionCost.
		memo := NewPartitionCostMemo(m, tab)
		var rowSize, totalRowSize int64
		for _, p := range parts {
			rowSize = tab.SetSize(p)
			totalRowSize += rowSize
		}
		for _, p := range parts {
			s := tab.SetSize(p)
			direct := m.PartitionCost(tab, s, totalRowSize)
			if got := memo.Cost(s, totalRowSize); got != direct {
				t.Fatalf("memo = %v, direct = %v (device %+v)", got, direct, dev)
			}
			if got := memo.Cost(s, totalRowSize); got != direct {
				t.Fatalf("memo cached = %v, direct = %v (device %+v)", got, direct, dev)
			}
		}
	})
}
