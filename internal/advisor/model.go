package advisor

import (
	"errors"
	"fmt"
	"math"

	"knives/internal/cost"
)

// ErrBadModel reports a model spec the service refuses: an unknown device
// name, or a NaN, infinite, or non-positive device-parameter override. The
// HTTP layer answers it with 400 — retrying the same payload cannot
// succeed.
var ErrBadModel = errors.New("advisor: invalid model spec")

// ModelSpec is the wire form of "which device should this request price
// on": a device preset name ("hdd", "ssd", "mm" — cost.DeviceByName lists
// the aliases) plus optional hardware overrides. A nil (absent) or zero
// spec means the daemon's configured model; overrides without a name apply
// over the daemon's own device.
//
// A request whose spec resolves to a DIFFERENT device than the daemon's is
// a what-if question: it is answered and cached under its own device key,
// but never registers or resets a drift tracker — exploratory pricing must
// not clobber the observation state of a table the daemon tracks on its
// configured hardware. Run the daemon with -model ssd to track tables on
// flash.
type ModelSpec struct {
	Name string `json:"name,omitempty"`

	// Hardware overrides over the named preset; absent (zero) keeps the
	// preset's value. Every present value must be finite and positive, and
	// the resolved device inside cost.Device.Validate's domain — anything
	// else is rejected before it can price garbage.
	BlockBytes  int64   `json:"block_bytes,omitempty"`
	BufferBytes int64   `json:"buffer_bytes,omitempty"`
	ReadBW      float64 `json:"read_bw,omitempty"`    // bytes/second
	WriteBW     float64 `json:"write_bw,omitempty"`   // bytes/second
	SeekSeconds float64 `json:"seek_s,omitempty"`     // seconds per refill
	CacheLine   int64   `json:"cache_line,omitempty"` // bytes
	MissSeconds float64 `json:"miss_s,omitempty"`     // seconds per miss
}

// validate rejects override values that could never describe hardware:
// negative sizes, and non-finite or non-positive rates and latencies. Zero
// means "absent" throughout (the JSON layer cannot distinguish a sent zero
// from an omitted field), so explicit zeros are not overrides.
func (ms *ModelSpec) validate() error {
	ints := []struct {
		name string
		v    int64
	}{
		{"block_bytes", ms.BlockBytes},
		{"buffer_bytes", ms.BufferBytes},
		{"cache_line", ms.CacheLine},
	}
	for _, f := range ints {
		if f.v < 0 {
			return fmt.Errorf("%w: %s %d must be positive", ErrBadModel, f.name, f.v)
		}
	}
	floats := []struct {
		name string
		v    float64
	}{
		{"read_bw", ms.ReadBW},
		{"write_bw", ms.WriteBW},
		{"seek_s", ms.SeekSeconds},
		{"miss_s", ms.MissSeconds},
	}
	for _, f := range floats {
		if f.v == 0 {
			continue
		}
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) || f.v <= 0 {
			return fmt.Errorf("%w: %s %v must be finite and positive", ErrBadModel, f.name, f.v)
		}
	}
	return nil
}

// overrides renders the spec's present values as a cost.Device overlay.
func (ms *ModelSpec) overrides() cost.Device {
	return cost.Device{
		BlockSize:      ms.BlockBytes,
		BufferSize:     ms.BufferBytes,
		ReadBandwidth:  ms.ReadBW,
		WriteBandwidth: ms.WriteBW,
		SeekTime:       ms.SeekSeconds,
		CacheLineSize:  ms.CacheLine,
		MissLatency:    ms.MissSeconds,
	}
}

// modelKeyOf canonically identifies a pricing model for cache keying. Two
// requests share advice/replay cache entries only when both the workload
// fingerprint AND this key agree — the same workload priced on different
// devices is a different question.
func modelKeyOf(m cost.Model) string {
	if dm, ok := m.(*cost.DeviceModel); ok {
		return dm.Device().Key()
	}
	return "model:" + m.Name()
}

// modelFor resolves a request's model spec to the cost model it prices
// under and that model's cache key. A nil or zero spec is the daemon's
// configured model. All spec failures are ErrBadModel (HTTP 400).
func (s *Service) modelFor(spec *ModelSpec) (cost.Model, string, error) {
	if spec == nil || *spec == (ModelSpec{}) {
		return s.model, s.modelKey, nil
	}
	if err := spec.validate(); err != nil {
		return nil, "", err
	}
	var base cost.Device
	if spec.Name != "" {
		dev, err := cost.DeviceByName(spec.Name)
		if err != nil {
			return nil, "", fmt.Errorf("%w: %v", ErrBadModel, err)
		}
		base = dev
	} else {
		dm, ok := s.model.(*cost.DeviceModel)
		if !ok {
			return nil, "", fmt.Errorf("%w: device overrides need a model name (the daemon's model %s is not device-parameterized)",
				ErrBadModel, s.model.Name())
		}
		base = dm.Device()
	}
	m, err := cost.NewDeviceModel(base.WithOverrides(spec.overrides()))
	if err != nil {
		return nil, "", fmt.Errorf("%w: %v", ErrBadModel, err)
	}
	return m, modelKeyOf(m), nil
}
