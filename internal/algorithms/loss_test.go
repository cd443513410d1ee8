package algorithms

import (
	"errors"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"knives/internal/advisor"
	"knives/internal/algo"
	"knives/internal/cost"
	"knives/internal/partition"
	"knives/internal/schema"
)

// FuzzServedPortfolioLoss measures what the advisor gives up by racing only
// advisor.PortfolioNames() instead of all six heuristics, on random tables
// from property_test.go's generators (1-20 columns of 1-200 bytes, 1-12
// queries): per device, how often the six-knife advice is strictly cheaper
// than the served advice, which dropped knife wins, and the worst relative
// gap. It reports and never fails on them; the loss is the trade DESIGN.md's
// Portfolio paragraph accepts. The seed corpus entry draws 12 tables and
// runs in well under a second. That paragraph's sample is seed 7 at 3,000
// tables, too slow for every test run (about 2.5 minutes on two cores):
// put "go test fuzz v1", "int64(7)" and "uint16(3000)" on three
// lines of testdata/fuzz/FuzzServedPortfolioLoss/design and run
// go test -run FuzzServedPortfolioLoss/design -v.
func FuzzServedPortfolioLoss(f *testing.F) {
	f.Add(int64(7), uint16(12))
	f.Fuzz(func(t *testing.T, seed int64, tables uint16) {
		n := max(1, min(int(tables), 3000))
		rng := rand.New(rand.NewSource(seed))
		sample := make([]schema.TableWorkload, n)
		for i := range sample {
			sample[i] = randomWorkload(t, rng, randomTable(t, rng, 20))
		}
		served := advisor.PortfolioNames()
		for _, m := range []cost.Model{cost.NewHDD(cost.DefaultDisk()), cost.NewSSD(), cost.NewMM()} {
			gaps := make([]float64, n) // (served - six) / six, 0 when the served knives tie
			winners := make([]string, n)
			workers := runtime.GOMAXPROCS(0)
			err := algo.FanOut(workers, func(w int) (err error) {
				for i := w; i < n && err == nil; i += workers {
					gaps[i], winners[i], err = servedGap(sample[i], m, served)
				}
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
			wins, worst, by := 0, 0.0, map[string]int{}
			for i, g := range gaps {
				if g > 0 {
					wins++
					worst = max(worst, g)
					by[winners[i]]++
				}
			}
			t.Logf("%s: six-knife advice strictly cheaper on %d of %d tables (%.2f %%; won by %v), worst gap %.3g",
				m.Name(), wins, n, 100*float64(wins)/float64(n), by, worst)
		}
	})
}

// servedGap returns how much dearer the best layout of the served knives
// is than the best of all six heuristics on tw, relative to the latter,
// and the first knife that found the latter; the Column layout competes on
// both sides, as it does in the advisor.
func servedGap(tw schema.TableWorkload, m cost.Model, served []string) (float64, string, error) {
	column := cost.WorkloadCost(m, tw, partition.Column(tw.Table).Parts)
	six, ours, winner := column, column, "Column"
	for _, a := range Heuristics() {
		res, err := a.Partition(tw, m)
		if errors.Is(err, algo.ErrDeclined) {
			continue
		}
		if err != nil {
			return 0, "", err
		}
		if res.Cost < six {
			six, winner = res.Cost, a.Name()
		}
		if slices.Contains(served, a.Name()) {
			ours = min(ours, res.Cost)
		}
	}
	if ours <= six {
		return 0, "", nil
	}
	return (ours - six) / six, winner, nil
}
