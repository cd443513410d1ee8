package advisor

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"testing"

	"knives/internal/attrset"
	"knives/internal/cost"
	"knives/internal/partition"
	"knives/internal/schema"
	"knives/internal/statestore"
)

// shadowTable is the fuzzed drift tracker's table: ten columns of uneven
// widths, so layouts that differ price differently.
func shadowTable(t *testing.T) *schema.Table {
	t.Helper()
	sizes := []int{4, 8, 8, 16, 25, 44, 100, 4, 10, 1}
	cols := make([]schema.Column, len(sizes))
	for i, size := range sizes {
		cols[i] = schema.Column{Name: string(rune('a' + i)), Kind: schema.KindChar, Size: size}
	}
	tab, err := schema.NewTable("events", 1_000_000, cols)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// shadowPalette is the small set of attribute sets the fuzzer draws from
// when it wants sets to repeat.
var shadowPalette = []attrset.Set{
	attrset.Of(0, 1), attrset.Of(2, 3), attrset.Of(0, 1, 2, 3), attrset.Of(4),
	attrset.Of(5, 6, 7), attrset.Of(8, 9), attrset.Of(0), attrset.Of(1, 6),
}

// shadowQueries draws n queries from rng: palette sets (so they repeat) or
// random non-empty sets over the table's ten columns, with fractional
// weights so a reordered sum would change bits.
func shadowQueries(rng *rand.Rand, n int, palette bool) []schema.TableQuery {
	qs := make([]schema.TableQuery, n)
	for i := range qs {
		var attrs attrset.Set
		if palette {
			attrs = shadowPalette[rng.Intn(len(shadowPalette))]
		} else {
			attrs = attrset.Set(rng.Intn(1<<10-1) + 1)
		}
		qs[i] = schema.TableQuery{ID: "x", Weight: float64(1+rng.Intn(20)) / 7, Attrs: attrs}
	}
	return qs
}

// driftShadowCoverage tallies what one run of the fuzz body exercised, so
// the committed seeds can be held to covering every path.
type driftShadowCoverage struct {
	checks, repeatFree, repeating, recomputes, reRegistrations, recoveries int
}

// runDriftShadow is FuzzDriftShadowVsReference's body. data's first two
// bytes choose the window (1–64, or unbounded), the device and the drift
// threshold; every following pair of bytes is one step: an observation
// batch of 0–70 queries (palette or random sets), a batch of single
// columns (which drives recomputes), a re-registration, or a snapshot →
// recover round trip of the durable service. Two services take the same
// steps: one journaling to a durable store and restarted at every round
// trip, one never interrupted. After every batch:
//
//   - both answer the same DriftReport, Ratio bits included;
//   - checkWindow on the retained log equals summaryReference — shadow
//     parts in order and both costs' bits — and the reported Ratio is the
//     reference's;
//   - where no attribute set repeats in the window, checkWindow also equals
//     rawShadowCheck, the shadow as it was priced over the raw log.
func runDriftShadow(t *testing.T, data []byte) driftShadowCoverage {
	var cov driftShadowCoverage
	if len(data) < 2 {
		return cov
	}
	window := int(data[0]) % 65
	if window == 0 {
		window = -1
	}
	models := []cost.Model{cost.NewHDD(cost.DefaultDisk()), cost.NewSSD(), cost.NewMM()}
	thresholds := []float64{0.15, 0.05, 0.01, 0.3}
	cfg := Config{
		Model:          models[int(data[1])%len(models)],
		DriftThreshold: thresholds[int(data[1])/len(models)%len(thresholds)],
		DriftWindow:    window,
	}
	dir := t.TempDir()
	var st *statestore.Durable
	open := func() *Service {
		c := cfg
		st = durableStore(t, dir, window)
		c.Store = st
		svc, err := OpenService(c)
		if err != nil {
			t.Fatal(err)
		}
		return svc
	}
	live, plain := open(), NewService(cfg)
	defer func() { live.Close() }()
	defer plain.Close()

	tab := shadowTable(t)
	register := func(tw schema.TableWorkload) {
		for _, svc := range []*Service{live, plain} {
			if _, _, err := svc.AdviseTable(tw); err != nil {
				t.Fatal(err)
			}
		}
	}
	initial := schema.TableWorkload{Table: tab, Queries: []schema.TableQuery{
		{ID: "q1", Weight: 1, Attrs: attrset.Of(0, 1, 2, 3)},
		{ID: "q2", Weight: 2, Attrs: attrset.Of(5, 6, 7)},
		{ID: "q3", Weight: 1, Attrs: attrset.Of(8, 9)},
	}}
	register(initial)

	observeBoth := func(step int, batch []schema.TableQuery) {
		tr, err := plain.tracker(tab.Name)
		if err != nil {
			t.Fatal(err)
		}
		advised := tr.Advice().Layout.Parts
		want, err := observe(plain, tab, batch)
		if err != nil {
			t.Fatal(err)
		}
		got, err := observe(live, tab, batch)
		if err != nil {
			t.Fatal(err)
		}
		if got != want || math.Float64bits(got.Ratio) != math.Float64bits(want.Ratio) {
			t.Fatalf("step %d: journaled service answered %+v, uninterrupted %+v", step, got, want)
		}
		if len(batch) == 0 {
			return
		}
		cov.checks++
		if want.Recomputed {
			cov.recomputes++
		}
		_, tw := tr.State()
		log := tw.Queries
		chk := checkWindow(cfg.Model, tab, log, advised)
		ref := summaryReference(cfg.Model, tab, log, advised)
		if !slices.Equal(chk.shadow, ref.shadow) ||
			math.Float64bits(chk.shadowCost) != math.Float64bits(ref.shadowCost) ||
			math.Float64bits(chk.advisedCost) != math.Float64bits(ref.advisedCost) {
			t.Fatalf("step %d: checkWindow %v shadow %x advised %x, reference %v shadow %x advised %x",
				step, chk.shadow, math.Float64bits(chk.shadowCost), math.Float64bits(chk.advisedCost),
				ref.shadow, math.Float64bits(ref.shadowCost), math.Float64bits(ref.advisedCost))
		}
		if r := referenceRatio(ref.shadowCost, ref.advisedCost); math.Float64bits(r) != math.Float64bits(want.Ratio) {
			t.Fatalf("step %d: reported ratio %x, reference %x", step, math.Float64bits(want.Ratio), math.Float64bits(r))
		}
		if !repeatFree(log) {
			cov.repeating++
			return
		}
		cov.repeatFree++
		raw, rawShadow, rawAdvised := rawShadowCheck(cfg.Model, tab, log, advised)
		if !partition.Must(tab, chk.shadow).Equal(raw) ||
			math.Float64bits(chk.shadowCost) != math.Float64bits(rawShadow) ||
			math.Float64bits(chk.advisedCost) != math.Float64bits(rawAdvised) {
			t.Fatalf("step %d: repeat-free window: checkWindow %v shadow %x advised %x, raw-log oracle %v shadow %x advised %x",
				step, chk.shadow, math.Float64bits(chk.shadowCost), math.Float64bits(chk.advisedCost),
				raw, math.Float64bits(rawShadow), math.Float64bits(rawAdvised))
		}
	}

	for step, ops := 0, data[2:]; len(ops) >= 2; step, ops = step+1, ops[2:] {
		op, arg := ops[0], ops[1]
		rng := rand.New(rand.NewSource(int64(step)<<8 | int64(arg)))
		switch op % 8 {
		case 0, 1, 2: // a batch of sets from the palette
			observeBoth(step, shadowQueries(rng, int(arg)%71, true))
		case 3: // a batch of random sets
			observeBoth(step, shadowQueries(rng, int(arg)%71, op&8 != 0))
		case 4: // single columns: the co-accessed layouts drift
			batch := make([]schema.TableQuery, 4+int(arg)%29)
			for i := range batch {
				batch[i] = schema.TableQuery{ID: "s", Weight: float64(1+i%5) / 3, Attrs: attrset.Single(rng.Intn(tab.NumAttrs()))}
			}
			observeBoth(step, batch)
		case 5: // re-registration: the initial workload, or a fresh one
			cov.reRegistrations++
			if arg%3 == 0 {
				register(initial)
			} else {
				register(schema.TableWorkload{Table: tab, Queries: shadowQueries(rng, 1+int(arg)%12, arg%2 == 0)})
			}
		case 6: // snapshot → recover the journaled service
			cov.recoveries++
			if err := st.Snapshot(); err != nil {
				t.Fatal(err)
			}
			if err := live.Close(); err != nil {
				t.Fatal(err)
			}
			live = open()
			if !bytes.Equal(normalized(live.ExportState()), normalized(plain.ExportState())) {
				t.Fatalf("step %d: recovered state differs from the uninterrupted service's", step)
			}
		case 7:
			observeBoth(step, nil)
		}
	}
	return cov
}

// driftShadowSeeds are the committed inputs: every window class, every
// device, palette-heavy and random streams, re-registrations and round
// trips.
func driftShadowSeeds() [][]byte {
	seeds := [][]byte{
		{16, 0, 0, 40, 1, 70, 6, 0, 2, 33, 4, 20, 4, 9, 0, 64, 6, 0, 1, 12},
		{0, 1, 3, 70, 11, 70, 0, 50, 6, 0, 4, 30, 5, 3, 2, 20, 6, 0, 7, 0},
		{1, 2, 0, 5, 0, 9, 6, 0, 4, 1, 2, 3},
		{64, 5, 3, 30, 3, 30, 5, 1, 0, 60, 4, 17, 6, 0, 4, 4, 4, 4, 0, 70},
		{8, 7, 2, 69, 5, 6, 0, 13, 6, 0, 1, 1, 3, 2},
		{4, 4, 3, 10, 3, 20, 3, 3, 6, 0, 3, 7, 4, 2, 3, 1, 3, 4},
	}
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 2+2*(10+rng.Intn(14)))
		rng.Read(data)
		seeds = append(seeds, data)
	}
	return seeds
}

// FuzzDriftShadowVsReference: see runDriftShadow.
func FuzzDriftShadowVsReference(f *testing.F) {
	for _, seed := range driftShadowSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 2+2*48 {
			data = data[:2+2*48]
		}
		runDriftShadow(t, data)
	})
}

// The committed seeds exercise what the fuzzer is for: repeat-free and
// repeating windows, recomputes, re-registrations and recoveries.
func TestDriftShadowSeedsCover(t *testing.T) {
	var total driftShadowCoverage
	for _, seed := range driftShadowSeeds() {
		c := runDriftShadow(t, seed)
		total.checks += c.checks
		total.repeatFree += c.repeatFree
		total.repeating += c.repeating
		total.recomputes += c.recomputes
		total.reRegistrations += c.reRegistrations
		total.recoveries += c.recoveries
	}
	if total.repeatFree == 0 || total.repeating == 0 || total.recomputes == 0 ||
		total.reRegistrations == 0 || total.recoveries == 0 {
		t.Fatalf("seeds do not cover every path: %+v", total)
	}
	t.Logf("%+v", total)
}
