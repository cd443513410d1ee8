package trojan

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"knives/internal/algo"
	"knives/internal/attrset"
	"knives/internal/cost"
	"knives/internal/partition"
	"knives/internal/schema"
	"knives/internal/workgen"
)

// benchShaped is a workload of the shape the end-to-end benchmark's
// advise-search stream posts (bench/ops.go, synthAdvise): 16-32 workgen
// queries over width columns. With allColumns a last query references every
// column, which pins r to the width.
func benchShaped(tb testing.TB, width int, frag float64, seed int64, allColumns bool) schema.TableWorkload {
	tb.Helper()
	mean := 1
	if width >= 2 {
		mean = 2 + int(seed*7)%(width/2)
	}
	tw, err := workgen.Generate(workload(tb, width).Table, workgen.Config{
		Queries:       16 + int(seed*5)%17,
		Fragmentation: frag,
		MeanAttrs:     mean,
		Seed:          seed,
	})
	if err != nil {
		tb.Fatal(err)
	}
	if allColumns {
		tw.Queries = append(tw.Queries, schema.TableQuery{ID: "all", Weight: 1, Attrs: tw.Table.AllAttrs()})
	}
	return tw
}

// sameGroups reports the first difference between two survivor lists, value
// bits included.
func sameGroups(got, want []group) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d surviving groups, reference has %d", len(got), len(want))
	}
	for i := range got {
		if got[i].mask != want[i].mask || math.Float64bits(got[i].value) != math.Float64bits(want[i].value) {
			return fmt.Errorf("group %d = {%b %v}, reference {%b %v}", i, got[i].mask, got[i].value, want[i].mask, want[i].value)
		}
	}
	return nil
}

func sameChosen(got, want []uint32) error {
	if !slices.Equal(got, want) {
		return fmt.Errorf("cover chose %b, reference %b", got, want)
	}
	return nil
}

// oracleBudget caps the oracle's cover DP in list-scan steps (~50 ms). Past
// it a check compares the survivors only and runs neither cover (the
// kernel's is seconds too when most of 2^20 groups survive);
// TestTrojanDenseSurvivors compares covers on inputs where everything does.
const oracleBudget = 3e7

// checkKernel runs the kernel and the oracle once each on one NMI matrix and
// compares them stage by stage: the survivors with their value bits, then —
// if the oracle's cover is within budget (covered) — the chosen groups in
// emission order, which it returns. c takes the oracle's ticks.
func checkKernel(nmi [][]float64, r int, threshold float64, c *algo.Counter) (chosen []uint32, covered bool, err error) {
	want := referenceGroups(nmi, r, threshold, c)
	got := interestingGroups(nmi, r, threshold)
	if err := sameGroups(got, want); err != nil {
		return nil, false, err
	}
	if referenceCoverSteps(want, r) > oracleBudget {
		return nil, false, nil
	}
	chosen = referenceCover(want, r)
	gotChosen, _ := cover(got, r)
	return chosen, true, sameChosen(gotChosen, chosen)
}

// checkPartition compares Partition with the oracle stage by stage and end
// to end: the layout, the cost bits and the candidate count. covered is
// false when the oracle's cover was over budget and only the survivors were
// compared.
func checkPartition(tr *Trojan, tw schema.TableWorkload, m cost.Model) (covered bool, err error) {
	threshold := tr.Threshold
	if threshold == 0 {
		threshold = 0.7
	}
	referenced := tw.ReferencedAttrs().Attrs()
	var c algo.Counter
	chosen, covered, err := checkKernel(pairwiseNMI(tw, referenced), len(referenced), threshold, &c)
	if err != nil || !covered {
		return false, err
	}
	got, err := tr.Partition(tw, m)
	if err != nil {
		return false, err
	}
	parts := referenceLayout(tw, chosen)
	want, err := algo.Finish(tw, parts, c.Eval(m, tw, parts), &c, time.Now())
	if err != nil {
		return false, err
	}
	if !got.Partitioning.Equal(want.Partitioning) {
		return false, fmt.Errorf("layout %s, reference %s", got.Partitioning, want.Partitioning)
	}
	if math.Float64bits(got.Cost) != math.Float64bits(want.Cost) {
		return false, fmt.Errorf("cost %v, reference %v", got.Cost, want.Cost)
	}
	if got.Stats.Candidates != want.Stats.Candidates {
		return false, fmt.Errorf("candidates %d, reference %d", got.Stats.Candidates, want.Stats.Candidates)
	}
	return true, nil
}

// The kernel against its oracle: every width the cap admits (odd ones and
// halves of width 0 and 1 included) × access-pattern shape × seed ×
// threshold, stage by stage and end to end, then the paper's two benchmarks
// on every device.
func TestTrojanMatchesReference(t *testing.T) {
	hdd := model()
	var cases, uncovered atomic.Int64
	t.Run("workgen", func(t *testing.T) {
		for width := 1; width <= 20; width++ {
			width := width
			t.Run(fmt.Sprintf("r=%d", width), func(t *testing.T) {
				t.Parallel()
				seeds := int64(8)
				if (testing.Short() || raceDetector) && width > 16 {
					// The oracle re-sums 2^r groups per case, ~75 ms at r = 20
					// and ten times that under the race detector, which has
					// nothing to find in a single-goroutine loop.
					seeds = 2
				}
				for _, frag := range []float64{0, .25, .5, .75, 1} {
					for seed := int64(1); seed <= seeds; seed++ {
						tw := benchShaped(t, width, frag, seed, seed%2 == 0)
						for _, th := range []float64{0.3, 0.5, 0.7, 0.9} {
							covered, err := checkPartition(&Trojan{Threshold: th}, tw, hdd)
							if err != nil {
								t.Fatalf("frag %v seed %d threshold %v: %v", frag, seed, th, err)
							}
							cases.Add(1)
							if !covered {
								uncovered.Add(1)
							}
						}
					}
				}
			})
		}
	})
	// Low thresholds on regular patterns leave most of 2^r groups standing,
	// which the oracle's cover cannot afford at r >= 16. That corner must
	// stay a corner, or this test has quietly stopped comparing covers.
	t.Logf("%d cases, oracle cover over budget (survivors compared only) on %d", cases.Load(), uncovered.Load())
	if uncovered.Load()*10 > cases.Load() {
		t.Errorf("oracle cover skipped on %d of %d cases, want under a tenth", uncovered.Load(), cases.Load())
	}

	models := map[string]cost.Model{"hdd": hdd, "ssd": cost.NewSSD(), "mm": cost.NewMM()}
	for _, b := range []*schema.Benchmark{schema.TPCH(1), schema.SSB(1)} {
		for _, tw := range b.TableWorkloads() {
			for name, m := range models {
				if covered, err := checkPartition(New(), tw, m); err != nil || !covered {
					t.Errorf("%s %s on %s: covered %v, %v", b.Name, tw.Table.Name, name, covered, err)
				}
			}
		}
	}
}

// atThreshold builds an NMI matrix over r attributes in which the group
// `mask` has `ones` pairs of NMI exactly 1 and the rest exactly 0, assigned
// in pair order; every pair outside the group is 0.
func atThreshold(r int, mask uint32, ones int) [][]float64 {
	nmi := make([][]float64, r)
	for i := range nmi {
		nmi[i] = make([]float64, r)
	}
	for i := 0; i < r; i++ {
		for j := i + 1; j < r; j++ {
			if mask&(1<<uint(i)) != 0 && mask&(1<<uint(j)) != 0 && ones > 0 {
				nmi[i][j], nmi[j][i] = 1, 1
				ones--
			}
		}
	}
	return nmi
}

// Groups whose mean pairwise NMI is exactly the threshold, or one float to
// either side of it: the filter may not decide these, and the exact re-score
// must decide them as the reference does — kept at the threshold and below
// it, dropped one float above.
func TestTrojanAtThreshold(t *testing.T) {
	for _, tc := range []struct {
		r    int
		mask uint32
		ones int // of C(k,2) pairs: the mean is ones/C(k,2) == 0.7 exactly
	}{
		{5, 0b11111, 7},                     // 7/10, the group straddles both halves
		{9, 0b1_0101_0110, 7},               // the same group scattered over r = 9
		{16, 0xffff, 84},                    // 84/120
		{20, 0xfffff, 133},                  // 133/190, the widest group there is
		{7, 0b0011111, 7},                   // odd r, group reaching into the high half
		{10, 0b11111_00000, 7}, {10, 31, 7}, // entirely inside one half
	} {
		nmi := atThreshold(tc.r, tc.mask, tc.ones)
		for _, th := range []float64{math.Nextafter(0.7, 0), 0.7, math.Nextafter(0.7, 1)} {
			// Most subgroups of a wide coupled group survive too, so at
			// r = 16 and 20 the oracle's cover is over budget: survivors only.
			var c algo.Counter
			if _, covered, err := checkKernel(nmi, tc.r, th, &c); err != nil || covered != (tc.r <= 10) {
				t.Errorf("r=%d mask=%b threshold %v: covered %v, %v", tc.r, tc.mask, th, covered, err)
			}
			kept := false
			for _, g := range interestingGroups(nmi, tc.r, th) {
				kept = kept || g.mask == tc.mask
			}
			if want := th <= 0.7; kept != want {
				t.Errorf("r=%d mask=%b threshold %v: group kept = %v, want %v", tc.r, tc.mask, th, kept, want)
			}
		}
	}
}

// The split-half sum and groupInterestingness add the same terms in different
// orders, so on inexact NMIs they differ in the last bits. With the threshold
// set to a group's exact interestingness the reference keeps the group; a
// kernel that trusted its own reordered sum would drop it whenever that sum
// came out one float lower, and would hand the DP a different value when it
// did not. Both must match the reference on every group of the matrix.
func TestTrojanReorderedSumsAreOnlyAFilter(t *testing.T) {
	const r = 12
	state := uint64(42)
	next := func() float64 {
		state = state*6364136223846793005 + 1442695040888963407
		return float64(state>>40) / (1 << 24)
	}
	nmi := make([][]float64, r)
	for i := range nmi {
		nmi[i] = make([]float64, r)
	}
	for i := 0; i < r; i++ {
		for j := i + 1; j < r; j++ {
			v := 0.6 + 0.4*next() // means near 0.8: most groups sit close to each other
			nmi[i][j], nmi[j][i] = v, v
		}
	}
	thresholds := 0
	for mask := uint32(1); mask < 1<<r; mask += 37 {
		th := groupInterestingness(nmi, mask, r)
		if th == 0 {
			continue
		}
		thresholds++
		var c algo.Counter
		if _, covered, err := checkKernel(nmi, r, th, &c); err != nil || !covered {
			t.Fatalf("threshold = interestingness of %b (%v): covered %v, %v", mask, th, covered, err)
		}
	}
	if thresholds < 100 {
		t.Fatalf("only %d thresholds tried", thresholds)
	}
}

// coupled returns a workload over r attributes whose first `first` and last
// r-first attributes are each always accessed together (NMI 1 inside a block,
// 0 across: the two blocks never co-occur). first == r is the all-coupled
// table on which every one of the 2^r groups survives.
func coupled(tb testing.TB, r, first int) schema.TableWorkload {
	var a, b attrset.Set
	for i := 0; i < r; i++ {
		if i < first {
			a = a.Add(i)
		} else {
			b = b.Add(i)
		}
	}
	qs := []schema.TableQuery{{ID: "a1", Weight: 1, Attrs: a}, {ID: "a2", Weight: 1, Attrs: a}}
	if !b.IsEmpty() {
		qs = append(qs, schema.TableQuery{ID: "b1", Weight: 1, Attrs: b}, schema.TableQuery{ID: "b2", Weight: 1, Attrs: b})
	}
	return workload(tb, r, qs...)
}

// The dense-survivor cover step: when (nearly) every group survives, a
// state's candidates are walked as its submasks instead of scanning the
// whole per-attribute survivor list, which bounds the DP by 3^r steps where
// the list scan takes ~4^r/3 — and chooses exactly what the list scan does.
func TestTrojanDenseSurvivors(t *testing.T) {
	for r := 2; r <= 14; r++ {
		for _, first := range []int{r, r / 2} {
			tw := coupled(t, r, first)
			nmi := pairwiseNMI(tw, tw.ReferencedAttrs().Attrs())
			groups := interestingGroups(nmi, r, 0.7)
			chosen, steps := cover(groups, r)
			if err := sameChosen(chosen, referenceCover(groups, r)); err != nil {
				t.Fatalf("r=%d first=%d: %v", r, first, err)
			}
			if bound := int64(math.Pow(3, float64(r))); steps > bound {
				t.Errorf("r=%d first=%d: cover took %d steps, bound 3^r = %d", r, first, steps, bound)
			}
			if first == r {
				if n := len(groups); n != 1<<uint(r)-r-1 {
					t.Fatalf("r=%d all-coupled: %d survivors, want every multi-attribute group (%d)", r, n, 1<<uint(r)-r-1)
				}
			}
			// End to end as well, the oracle's budget lifted by going around it.
			got, err := New().Partition(tw, model())
			if err != nil {
				t.Fatal(err)
			}
			var c algo.Counter
			want := partition.Must(tw.Table, referenceLayout(tw, referenceCover(referenceGroups(nmi, r, 0.7, &c), r)))
			if !got.Partitioning.Equal(want) {
				t.Fatalf("r=%d first=%d: layout %s, reference %s", r, first, got.Partitioning, want)
			}
		}
	}
}

// A clock-free floor under the kernel: the reference allocated 12 MiB for
// dp+choice alone on every 20-attribute search; the cover DP now sizes those
// by the survivors' attributes.
func TestTrojanSearchAllocatesUnderOneMiB(t *testing.T) {
	tw := fullWidth(t, 20) // the benchmark's r = 20 table
	tr, m := New(), model()
	least := uint64(math.MaxUint64)
	for i := 0; i < 3; i++ { // the least of three: a stray runtime allocation must not fail it
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := tr.Partition(tw, m); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if d := after.TotalAlloc - before.TotalAlloc; d < least {
			least = d
		}
	}
	if least >= 1<<20 {
		t.Errorf("one r=20 search allocated %d bytes, want < 1 MiB", least)
	}
	t.Logf("one r=20 search allocated %d bytes", least)
}

// FuzzTrojanVsReference drives Partition and the oracle with fuzzed attribute
// sets, weights (zero included) and thresholds (any float, NaN and ±Inf
// included) and requires bit identity.
func FuzzTrojanVsReference(f *testing.F) {
	f.Add(uint8(5), []byte{0b00011, 0, 1, 0b00011, 0, 2, 0b01100, 0, 1, 0b10000, 0, 0}, 0.7)
	f.Add(uint8(12), []byte{0xff, 0x0f, 3, 0xf0, 0x00, 1, 0x0f, 0x0f, 7, 0x01, 0x08, 0}, 0.5)
	f.Add(uint8(3), []byte{7, 0, 1, 7, 0, 1}, 1.0)
	f.Add(uint8(9), []byte{0x55, 1, 9, 0xaa, 0, 4, 0xff, 1, 1}, math.NaN())
	f.Fuzz(func(t *testing.T, width uint8, data []byte, threshold float64) {
		n := 1 + int(width)%14
		tw := workload(t, n)
		for i := 0; i+2 < len(data) && len(tw.Queries) < 24; i += 3 {
			attrs := attrset.Set(uint64(data[i])|uint64(data[i+1])<<8) & tw.Table.AllAttrs()
			if attrs.IsEmpty() {
				continue
			}
			tw.Queries = append(tw.Queries, schema.TableQuery{
				ID:     fmt.Sprintf("f%d", i),
				Weight: float64(data[i+2]) / 4,
				Attrs:  attrs,
			})
		}
		if _, err := checkPartition(&Trojan{Threshold: threshold}, tw, model()); err != nil {
			t.Fatal(err)
		}
	})
}
